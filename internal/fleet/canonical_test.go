package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// hostileStrings are the spellings encoding/json escapes: quotes and
// backslashes, every short escape, other control characters, the HTML
// characters, U+2028/U+2029, invalid and truncated UTF-8, and the
// replacement character itself.
var hostileStrings = []string{
	"", "MESI/TSO", `a"b\c`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\u2028para\u2029", "\xff\xfe", "\xe2\x80", "ok\xc3", "\ufffd", "h\u00e9llo w\u00f6rld \u2713 \U0001F642",
	"checker: iteration 2: ghb violation: cycle in ghb(TSO): W(0x10000000) -> R(0x10000000)",
}

// edgeFloats straddle encoding/json's switch to the e form (below 1e-6
// and from 1e21 on) and its exponent clean-up.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e21, 9.99e20,
	-1e21, 1e100, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125, 0.1,
}

// fill sets every field reachable from v, JSON-visible or not, so that a
// field added to Merged, MergedStats or core.Result without its place in
// CanonicalBytes shows as a difference. NaN and ±Inf are drawn only
// when nonFinite is set.
func fill(t *testing.T, rng *rand.Rand, v reflect.Value, nonFinite bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, rng, v.Field(i), nonFinite)
		}
	case reflect.Slice:
		switch n := rng.Intn(6) - 1; n {
		case -1:
			v.SetZero()
		default:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(t, rng, v.Index(i), nonFinite)
			}
		}
	case reflect.String:
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			v.SetString(string(b))
		} else {
			v.SetString(hostileStrings[rng.Intn(len(hostileStrings))])
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float64:
		switch {
		case nonFinite && rng.Intn(8) == 0:
			v.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
		case rng.Intn(2) == 0:
			v.SetFloat(edgeFloats[rng.Intn(len(edgeFloats))])
		default:
			v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		}
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// sameAsJSON fails t unless CanonicalBytes writes the bytes and the error
// json.Marshal does.
func sameAsJSON(t *testing.T, m Merged) {
	t.Helper()
	got, gotErr := m.CanonicalBytes()
	want, wantErr := json.Marshal(m)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("CanonicalBytes error %v, json.Marshal error %v", gotErr, wantErr)
	}
	var unsupported *json.UnsupportedValueError
	if gotErr != nil && !errors.As(gotErr, &unsupported) {
		t.Fatalf("CanonicalBytes error %T, want *json.UnsupportedValueError", gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CanonicalBytes differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestCanonicalBytesMatchesJSON: CanonicalBytes is json.Marshal written
// by hand, on random Merged values with every field set, hostile
// strings, edge floats, nil and empty slices, and — in one value of
// four — NaN or an infinity somewhere.
func TestCanonicalBytesMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		var m Merged
		fill(t, rng, reflect.ValueOf(&m).Elem(), i%4 == 0)
		sameAsJSON(t, m)
	}
	sameAsJSON(t, Merged{})
}

// FuzzCanonicalBytes feeds one string and one float through every
// string and float field of a merged result.
func FuzzCanonicalBytes(f *testing.F) {
	for i, s := range hostileStrings {
		f.Add(s, edgeFloats[i%len(edgeFloats)])
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		var m Merged
		m.Results = make([]core.Result, 2)
		for i := range m.Results {
			r := &m.Results[i]
			r.Scenario, r.Source, r.Detail = s, s, s
			r.SimSeconds, r.TotalCoverage, r.MaxNDT, r.LastNDT, r.SumFitness = x, -x, x/3, x*1e20, x*1e-20
		}
		m.Stats.CoverageKey, m.Stats.SumFitness, m.Stats.UnionCoverage = s, x, x*x
		sameAsJSON(t, m)
	})
}
