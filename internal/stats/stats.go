// Package stats provides the small set of summary statistics used by the
// evaluation harness (arithmetic means over samples, as reported in
// Table 4 of the paper, plus dispersion measures for EXPERIMENTS.md) and
// the collective-checking dedupe counters surfaced by the fleet.
package stats

import (
	"fmt"
	"sort"
)

// Dedupe aggregates collective-checking counters: how many candidate
// executions were submitted to the checker, how many were signature
// duplicates of an earlier one (hits, skipping a full model check), and
// how many distinct signatures were seen.
type Dedupe struct {
	// Checks is the number of candidate executions submitted.
	Checks uint64
	// Hits counts submissions whose signature was already checked.
	Hits uint64
	// Unique counts distinct execution signatures (Checks - Hits when
	// the counters come from a single scope).
	Unique uint64
	// Durable counts signatures resolved from the durable on-disk
	// verdict store instead of a fresh model check — the cross-campaign
	// tier below the in-RAM memo. Durable hits are a subset of Unique,
	// not of Hits: the store answers the *first* in-process submission
	// of a signature, so Checks - Unique == Hits still holds.
	Durable uint64
}

// Note records one submission.
func (d *Dedupe) Note(hit bool) {
	d.Checks++
	if hit {
		d.Hits++
	} else {
		d.Unique++
	}
}

// Merge folds o's counters into d.
func (d *Dedupe) Merge(o Dedupe) {
	d.Checks += o.Checks
	d.Hits += o.Hits
	d.Unique += o.Unique
	d.Durable += o.Durable
}

// HitRate returns Hits/Checks, or 0 when nothing was checked.
func (d Dedupe) HitRate() float64 { return Ratio(d.Hits, d.Checks) }

// UniqueRate returns Unique/Checks, or 0 when nothing was checked.
func (d Dedupe) UniqueRate() float64 { return Ratio(d.Unique, d.Checks) }

// Ratio returns num/den, or 0 when den is zero. Every ratio derived
// from the counters in this package goes through it: these values feed
// the /metrics exposition, where a NaN from a 0/0 breaks the text
// format (and rate() math downstream), so zero totals are defined to
// yield 0 — "no activity", not "undefined".
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (d Dedupe) String() string {
	s := fmt.Sprintf("%d checks, %d unique, %d hits (%.1f%% dedupe)",
		d.Checks, d.Unique, d.Hits, 100*d.HitRate())
	if d.Durable > 0 {
		s += fmt.Sprintf(", %d durable", d.Durable)
	}
	return s
}

// Fastpath aggregates checker fast-path outcome counters: of the
// executions the clock-rule checker saw, how many it proved valid on
// its own, how many violations it detected itself, and how many fell
// back to the exact checker (unsupported model or malformed
// execution). Like Dedupe the fields are commutative sums, so any
// partition of the same check stream merges to the same totals.
type Fastpath struct {
	// Checks is the number of executions submitted to the fast path.
	Checks uint64
	// Valid counts executions the clock pass proved valid alone.
	Valid uint64
	// Invalid counts violations the clock pass detected (the canonical
	// witness is still re-derived by the exact checker).
	Invalid uint64
	// Fallback counts inconclusive answers decided by the exact checker.
	Fallback uint64
}

// Note records one fast-path answer: conclusive (valid or invalid) or
// a fallback.
func (f *Fastpath) Note(valid, conclusive bool) {
	f.Checks++
	switch {
	case !conclusive:
		f.Fallback++
	case valid:
		f.Valid++
	default:
		f.Invalid++
	}
}

// Merge folds o's counters into f.
func (f *Fastpath) Merge(o Fastpath) {
	f.Checks += o.Checks
	f.Valid += o.Valid
	f.Invalid += o.Invalid
	f.Fallback += o.Fallback
}

// Conclusive returns the number of checks the clock pass decided.
func (f Fastpath) Conclusive() uint64 { return f.Valid + f.Invalid }

// ConclusiveRate returns Conclusive/Checks, or 0 when nothing ran.
func (f Fastpath) ConclusiveRate() float64 { return Ratio(f.Conclusive(), f.Checks) }

// FallbackRate returns Fallback/Checks, or 0 when nothing ran.
func (f Fastpath) FallbackRate() float64 { return Ratio(f.Fallback, f.Checks) }

func (f Fastpath) String() string {
	return fmt.Sprintf("%d checks, %d fast-valid, %d fast-invalid, %d fallback (%.1f%% conclusive)",
		f.Checks, f.Valid, f.Invalid, f.Fallback, 100*f.ConclusiveRate())
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
