// Package obs is the framework's phase-span tracer: spans attribute
// wall time to the stages of the verification pipeline, and per-run
// breakdowns aggregate into a deterministic, mergeable Snapshot.
//
// Instrumentation never participates in the deterministic result
// surface: spans are wall-clock side channels that ride outside
// fleet.Merged.CanonicalBytes, so an instrumented campaign is
// byte-identical to an uninstrumented one.
//
// Every handle type is nil-safe — methods on a nil *PhaseStats or *Agg
// are no-ops — so call sites need no "is obs on?" branches of their own.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one stage of the verification pipeline. Spans recorded
// against a phase attribute wall-clock time to the layer that spent it
// — the signal the adaptive scheduler and the BENCH overhead gates
// need, localized the way RealityCheck argues verification signals
// should be.
type Phase int

const (
	// PhaseTestgen covers test generation: GP selection/crossover (or
	// random generation), generator feedback, and on-the-fly test
	// compilation.
	PhaseTestgen Phase = iota
	// PhaseSim covers simulated execution: program load, event-kernel
	// ticks, quiesce and test-memory resets.
	PhaseSim
	// PhaseDecode covers external trace ingestion: parsing a trace
	// stream and materializing candidate executions — the oracle-mode
	// analogue of PhaseSim (the execution is read, not simulated).
	PhaseDecode
	// PhaseFastCheck covers verification laps the clock-rule fast path
	// decided conclusively — no exact model check ran (invalid
	// detections also land here: the fast path found the violation and
	// only the witness was re-derived exactly).
	PhaseFastCheck
	// PhaseCheck covers full memmodel verdict computation — executions
	// the fast path could not decide (or was disabled). A campaign books
	// every verification lap the fast path did not decide here.
	PhaseCheck
	// PhaseMemo covers the oracle's verdict-memo hit path — traces
	// resolved by signature lookup without a model check.
	PhaseMemo
	// PhaseMerge covers shard-result merging and canonical encoding.
	PhaseMerge

	// NumPhases is the phase count (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{"testgen", "sim", "decode", "fastcheck", "check", "memo", "merge"}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseStats is the hot-path span accumulator: one atomic pair per
// phase, safe for concurrent use from any number of campaigns. A nil
// *PhaseStats is the disabled tracer — Observe is a no-op — so
// instrumented code needs no enable flag of its own.
type PhaseStats struct {
	ns    [NumPhases]atomic.Int64
	count [NumPhases]atomic.Uint64
}

// Observe records one span of duration d against phase p.
func (ps *PhaseStats) Observe(p Phase, d time.Duration) {
	if ps == nil || p < 0 || p >= NumPhases {
		return
	}
	ps.ns[p].Add(int64(d))
	ps.count[p].Add(1)
}

// ObserveN records n spans totalling ns nanoseconds against phase p —
// the batched flush for hot loops that accumulate spans locally and
// deposit them once per test-run instead of paying two atomic adds per
// iteration. With n = 0 it books time that belongs to the phase without
// being a span of its own.
func (ps *PhaseStats) ObserveN(p Phase, ns int64, n uint64) {
	if ps == nil || p < 0 || p >= NumPhases || ns == 0 && n == 0 {
		return
	}
	ps.ns[p].Add(ns)
	ps.count[p].Add(n)
}

// Snapshot captures the accumulated spans.
func (ps *PhaseStats) Snapshot() Snapshot {
	var s Snapshot
	if ps == nil {
		return s
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.set(p, PhaseStat{Ns: ps.ns[p].Load(), Count: ps.count[p].Load()})
	}
	return s
}

// PhaseStat is one phase's aggregate: total wall time and span count.
// Both are exact integers, so aggregation is commutative and
// associative — the property that lets snapshots ride the shard-merge
// algebra.
type PhaseStat struct {
	Ns    int64  `json:"ns"`
	Count uint64 `json:"count"`
}

// Seconds returns the phase time in seconds.
func (s PhaseStat) Seconds() float64 { return float64(s.Ns) / 1e9 }

func (s PhaseStat) add(o PhaseStat) PhaseStat {
	return PhaseStat{Ns: s.Ns + o.Ns, Count: s.Count + o.Count}
}

// Snapshot is the deterministic, mergeable observability aggregate: a
// per-phase timing breakdown. It rides fleet.ShardResult across process
// boundaries and merges through fleet.MergeShards — but is excluded
// from Merged.CanonicalBytes, because wall time is the one thing about
// a campaign that is NOT a pure function of (spec, range).
type Snapshot struct {
	Testgen   PhaseStat `json:"testgen"`
	Sim       PhaseStat `json:"sim"`
	Decode    PhaseStat `json:"decode"`
	FastCheck PhaseStat `json:"fastcheck"`
	Check     PhaseStat `json:"check"`
	Memo      PhaseStat `json:"memo"`
	// Merging is the PhaseMerge aggregate (named to leave the Merge
	// method its natural name).
	Merging PhaseStat `json:"merge"`
}

// Span returns a snapshot holding a single span — the helper merge
// sites use to fold their own elapsed time into an aggregate.
func Span(p Phase, d time.Duration) Snapshot {
	var s Snapshot
	s.set(p, PhaseStat{Ns: int64(d), Count: 1})
	return s
}

// Phase returns one phase's aggregate.
func (s Snapshot) Phase(p Phase) PhaseStat {
	switch p {
	case PhaseTestgen:
		return s.Testgen
	case PhaseSim:
		return s.Sim
	case PhaseDecode:
		return s.Decode
	case PhaseFastCheck:
		return s.FastCheck
	case PhaseCheck:
		return s.Check
	case PhaseMemo:
		return s.Memo
	case PhaseMerge:
		return s.Merging
	default:
		return PhaseStat{}
	}
}

func (s *Snapshot) set(p Phase, st PhaseStat) {
	switch p {
	case PhaseTestgen:
		s.Testgen = st
	case PhaseSim:
		s.Sim = st
	case PhaseDecode:
		s.Decode = st
	case PhaseFastCheck:
		s.FastCheck = st
	case PhaseCheck:
		s.Check = st
	case PhaseMemo:
		s.Memo = st
	case PhaseMerge:
		s.Merging = st
	}
}

// Merge returns the field-wise sum of s and o. Integer addition makes
// it commutative and associative, so any partition of the same span
// set merges to the same snapshot — the obs analogue of the
// MergeShards count-vector algebra, property-tested in internal/fleet.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var out Snapshot
	for p := Phase(0); p < NumPhases; p++ {
		out.set(p, s.Phase(p).add(o.Phase(p)))
	}
	return out
}

// Empty reports whether no spans were recorded.
func (s Snapshot) Empty() bool { return s == Snapshot{} }

// TotalNs returns the summed wall time across phases.
func (s Snapshot) TotalNs() int64 {
	var t int64
	for p := Phase(0); p < NumPhases; p++ {
		t += s.Phase(p).Ns
	}
	return t
}

// String renders the breakdown for human consumption, phases with
// their share of the instrumented total:
//
//	testgen 1.2s (31%), sim 2.4s (63%), check 180ms (5%), memo 40ms (1%), merge 2ms (0%)
//
// Phases with no spans are omitted; an empty snapshot renders as
// "no spans".
func (s Snapshot) String() string {
	total := s.TotalNs()
	if total == 0 {
		return "no spans"
	}
	parts := make([]string, 0, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		st := s.Phase(p)
		if st.Count == 0 && st.Ns == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s (%d%%)",
			p, time.Duration(st.Ns).Round(time.Millisecond), 100*st.Ns/total))
	}
	return strings.Join(parts, ", ")
}

// Agg is a concurrency-safe snapshot accumulator for sites that merge
// snapshots from many goroutines (a worker absorbing shard results, a
// daemon totalling campaigns).
type Agg struct {
	mu sync.Mutex
	s  Snapshot
}

// Absorb folds one snapshot in. Nil-safe.
func (a *Agg) Absorb(s Snapshot) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.s = a.s.Merge(s)
	a.mu.Unlock()
}

// Snapshot returns the accumulated total.
func (a *Agg) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}
