package stats

import (
	"math"
	"testing"

	"repro/internal/mergeguard"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean(nil), 0) {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{2, 4, 6}), 4) {
		t.Error("Mean wrong")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("even median wrong")
	}
	if !almost(Median(nil), 0) {
		t.Error("Median(nil) != 0")
	}
}

// TestRatioZeroTotals: a ratio over a zero total must be 0, never NaN
// or Inf — encoding/json refuses both.
func TestRatioZeroTotals(t *testing.T) {
	cases := []struct {
		num, den uint64
		want     float64
	}{
		{0, 0, 0},
		{5, 0, 0}, // degenerate but must still not divide
		{0, 4, 0},
		{1, 4, 0.25},
		{4, 4, 1},
	}
	for _, tc := range cases {
		got := Ratio(tc.num, tc.den)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Ratio(%d, %d) = %v, non-finite", tc.num, tc.den, got)
		}
		if !almost(got, tc.want) {
			t.Errorf("Ratio(%d, %d) = %v, want %v", tc.num, tc.den, got, tc.want)
		}
	}

	var d Dedupe
	for name, got := range map[string]float64{
		"HitRate":    d.HitRate(),
		"UniqueRate": d.UniqueRate(),
	} {
		if math.IsNaN(got) || math.IsInf(got, 0) || got != 0 {
			t.Errorf("zero-total %s = %v, want 0", name, got)
		}
	}
	d = Dedupe{Checks: 8, Hits: 6, Unique: 2}
	if !almost(d.HitRate(), 0.75) || !almost(d.UniqueRate(), 0.25) {
		t.Errorf("HitRate/UniqueRate = %v/%v", d.HitRate(), d.UniqueRate())
	}
}

func TestDedupeCounters(t *testing.T) {
	var d Dedupe
	if d.HitRate() != 0 {
		t.Errorf("empty HitRate = %v, want 0", d.HitRate())
	}
	d = Dedupe{Checks: 10, Hits: 7, Unique: 3}
	if d.HitRate() != 0.7 {
		t.Errorf("HitRate = %v, want 0.7", d.HitRate())
	}
	if got := d.String(); got != "10 checks, 3 unique, 7 hits (70.0% dedupe)" {
		t.Errorf("String = %q", got)
	}
	d.Durable = 2
	if got := d.String(); got != "10 checks, 3 unique, 7 hits (70.0% dedupe), 2 durable" {
		t.Errorf("String with durable hits = %q", got)
	}
}

func TestFastpathCounters(t *testing.T) {
	var f Fastpath
	if f.ConclusiveRate() != 0 || f.FallbackRate() != 0 {
		t.Errorf("empty rates = %v/%v, want 0/0", f.ConclusiveRate(), f.FallbackRate())
	}
	f.Note(true, true)
	f.Note(true, true)
	f.Note(false, true)
	f.Note(false, false)
	if f.Checks != 4 || f.Valid != 2 || f.Invalid != 1 || f.Fallback != 1 {
		t.Fatalf("counters = %+v, want 4/2/1/1", f)
	}
	if f.Conclusive() != 3 || !almost(f.ConclusiveRate(), 0.75) || !almost(f.FallbackRate(), 0.25) {
		t.Errorf("conclusive = %d, rates = %v/%v", f.Conclusive(), f.ConclusiveRate(), f.FallbackRate())
	}

	// Merge is a commutative component-wise sum: any grouping of the
	// same tallies folds to the same totals — what lets the counters
	// ride the shard-merge algebra.
	a := Fastpath{Checks: 4, Valid: 2, Invalid: 1, Fallback: 1}
	b := Fastpath{Checks: 6, Valid: 5, Invalid: 0, Fallback: 1}
	c := Fastpath{Checks: 1, Valid: 0, Invalid: 0, Fallback: 1}
	var ab, ba Fastpath
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Fatalf("merge order changed totals: %+v vs %+v", ab, ba)
	}
	if ab.Checks != 11 || ab.Valid != 7 || ab.Invalid != 1 || ab.Fallback != 3 {
		t.Fatalf("merged = %+v, want 11/7/1/3", ab)
	}
	if got := ab.String(); got != "11 checks, 7 fast-valid, 1 fast-invalid, 3 fallback (72.7% conclusive)" {
		t.Errorf("String = %q", got)
	}
}

// TestMergeCoversEveryField proves each counter propagates through
// Merge into the result.
func TestMergeCoversEveryField(t *testing.T) {
	fastpath := func(a, b Fastpath) Fastpath { a.Merge(b); return a }
	if got := mergeguard.Uncovered(fastpath, 1); got != nil {
		t.Errorf("Fastpath.Merge drops %v", got)
	}
}
