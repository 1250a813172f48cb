// Package mr seeds maprange true positives (unsorted appends, builder
// writes, emitters, float accumulation inside map iteration) and the
// collect-then-sort / loop-local patterns that must stay silent.
package mr

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
)

func unsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration`
	}
	return keys
}

func sortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedByHelper(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(ks []string) { sort.Strings(ks) }

// Sorting a different slice whose name contains the target's does not
// redeem the append.
func sortedOther(m map[string]int, outer []string) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside map iteration`
	}
	sort.Strings(outer)
	return append(out, outer...)
}

// A conversion to a sort.Interface still sorts the target.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func sortedViaConversion(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(byLen(keys))
	return keys
}

func sortedViaSlice(m map[int]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func loopLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

func builder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `strings\.Builder\.WriteString inside map iteration`
	}
	return b.String()
}

func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside map iteration emits`
	}
}

func floatAcc(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into sum`
	}
	return sum
}

// Integer accumulation commutes exactly: no finding.
func intAcc(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func allowedAcc(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		//mcvlint:allow maprange consumer tolerance-compares; rounding drift acceptable here
		sum += v
	}
	return sum
}

// maps.Keys iterators inherit the map's randomized order.
func iterKeys(m map[string]int) []string {
	var ks []string
	for k := range maps.Keys(m) {
		ks = append(ks, k) // want `append to ks inside map iteration`
	}
	return ks
}
