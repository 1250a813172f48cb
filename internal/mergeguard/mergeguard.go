// Package mergeguard is the repository's one merge-field guard: it
// proves a Merge method *propagates* every field. It perturbs one
// numeric leaf of the right-hand operand at a time with seeded-random
// values and requires the merged result to change — a merge that drops
// a counter (a coverage union degraded to "no data", a fast-path
// counter left out of the fold) fails the guard on exactly the field
// it drops.
package mergeguard

import (
	"fmt"
	"math/rand"
	"reflect"
)

// trials is the number of random perturbations tried per leaf. A leaf
// counts as covered if any perturbation changes the merged result, so
// extra trials only rescue merges with coincidental fixed points
// (e.g. saturating or modular folds); dropped fields fail all trials.
const trials = 4

// Uncovered merges single-leaf perturbations of the right operand into
// a zero left operand and returns the dotted paths of numeric leaf
// fields that never influenced the result. merge must not mutate its
// operands' shared state beyond the returned value; wrap
// pointer-receiver merges as
//
//	func(a, b T) T { a.Merge(b); return a }
//
// Unexported, bool, string, map, and pointer leaves are outside the
// merge algebra and are skipped.
func Uncovered[T any](merge func(a, b T) T, seed int64) []string {
	var zero T
	rt := reflect.TypeOf(zero)
	if rt.Kind() != reflect.Struct {
		panic(fmt.Sprintf("mergeguard: %s is not a struct", rt))
	}
	rng := rand.New(rand.NewSource(seed))
	base := merge(zero, zero)

	var uncovered []string
	for _, path := range leafPaths(rt, nil) {
		covered := false
		for i := 0; i < trials && !covered; i++ {
			b := zero
			perturb(reflect.ValueOf(&b).Elem(), path.index, rng)
			if !reflect.DeepEqual(merge(zero, b), base) {
				covered = true
			}
		}
		if !covered {
			uncovered = append(uncovered, path.name)
		}
	}
	return uncovered
}

// leaf names one settable numeric position: the dotted field path for
// reporting and the index chain (field indices, with array positions
// encoded as negative offsets handled by perturb) to reach it.
type leaf struct {
	name  string
	index []pathStep
}

type pathStep struct {
	field int // struct field index, or -1 for an array element
	elem  int // array element index when field == -1
}

// leafPaths enumerates exported numeric leaves reachable through
// structs and fixed-size arrays.
func leafPaths(rt reflect.Type, prefix []pathStep) []leaf {
	var out []leaf
	switch rt.Kind() {
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			steps := append(append([]pathStep(nil), prefix...), pathStep{field: i})
			for _, l := range leafPaths(f.Type, steps) {
				l.name = joinName(f.Name, l.name)
				out = append(out, l)
			}
		}
	case reflect.Array:
		for i := 0; i < rt.Len(); i++ {
			steps := append(append([]pathStep(nil), prefix...), pathStep{field: -1, elem: i})
			for _, l := range leafPaths(rt.Elem(), steps) {
				l.name = joinName(fmt.Sprintf("[%d]", i), l.name)
				out = append(out, l)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		out = append(out, leaf{index: prefix})
	case reflect.Slice:
		// A slice of numerics is one leaf: perturb appends an element.
		switch rt.Elem().Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			out = append(out, leaf{index: prefix})
		}
	}
	return out
}

func joinName(head, tail string) string {
	if tail == "" {
		return head
	}
	if tail[0] == '[' {
		return head + tail
	}
	return head + "." + tail
}

// perturb walks v along steps and sets the leaf to a random nonzero
// value (or appends one, for slice leaves).
func perturb(v reflect.Value, steps []pathStep, rng *rand.Rand) {
	for _, s := range steps {
		if s.field >= 0 {
			v = v.Field(s.field)
		} else {
			v = v.Index(s.elem)
		}
	}
	n := 1 + rng.Int63n(1<<16)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n))
	case reflect.Slice:
		el := reflect.New(v.Type().Elem()).Elem()
		perturb(el, nil, rng)
		v.Set(reflect.Append(v, el))
	default:
		panic(fmt.Sprintf("mergeguard: unperturbable leaf kind %s", v.Kind()))
	}
}
