package checker

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
)

const (
	ax memsys.Addr = 0x1000
	ay memsys.Addr = 0x1040
)

// serialMP replays one valid MP iteration: writer thread then reader.
func serialMP(r *Recorder, readY, readX uint64) {
	r.CommitWrite(1, 0, 0, ax, 101, false)
	r.WriteSerialized(1, 0, 0, ax, 101)
	r.CommitWrite(1, 1, 0, ay, 102, false)
	r.WriteSerialized(1, 1, 0, ay, 102)
	r.CommitRead(2, 0, 0, ay, readY, false)
	r.CommitRead(2, 1, 0, ax, readX, false)
}

func TestValidIterationAccepted(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	serialMP(r, 102, 101)
	if v := r.EndIteration(); v != nil {
		t.Fatalf("valid iteration rejected: %v", v)
	}
	if r.Iteration() != 1 {
		t.Fatalf("Iteration = %d", r.Iteration())
	}
}

func TestForbiddenOutcomeRejected(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	// r1 = fresh y, r2 = stale x: the Figure 1 forbidden outcome.
	serialMP(r, 102, 0)
	v := r.EndIteration()
	if v == nil {
		t.Fatal("MP violation accepted")
	}
	if v.Result.Kind != memmodel.ViolationGHB {
		t.Fatalf("kind = %v, want ghb", v.Result.Kind)
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
}

func TestCorruptValueRejected(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	r.CommitRead(1, 0, 0, ax, 0xdeadbeef, false) // value no write produced
	v := r.EndIteration()
	if v == nil || v.Result.Kind != memmodel.ViolationStructural {
		t.Fatalf("corrupt value not caught: %+v", v)
	}
}

func TestSerializedButNeverCommittedRejected(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	r.WriteSerialized(1, 0, 0, ax, 101)
	v := r.EndIteration()
	if v == nil || v.Result.Kind != memmodel.ViolationStructural {
		t.Fatalf("orphan serialization not caught: %+v", v)
	}
}

func TestNDTDeterministicRunIsOne(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	for i := 0; i < 4; i++ {
		serialMP(r, 102, 101)
		if v := r.EndIteration(); v != nil {
			t.Fatal(v)
		}
	}
	// Every event has exactly one conflict-order predecessor across all
	// iterations: NDT = 1 (Definition 2's baseline).
	if got := r.NDT(); got != 1.0 {
		t.Fatalf("NDT = %v, want 1.0", got)
	}
	if len(r.FitAddrs()) != 0 {
		t.Fatalf("deterministic run has fitaddrs: %v", r.FitAddrs())
	}
}

func TestNDTGrowsWithRacyOutcomes(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	// Iteration 1: reader sees both writes; iteration 2: neither.
	serialMP(r, 102, 101)
	if v := r.EndIteration(); v != nil {
		t.Fatal(v)
	}
	serialMP(r, 0, 0)
	if v := r.EndIteration(); v != nil {
		t.Fatal(v)
	}
	got := r.NDT()
	if got <= 1.0 {
		t.Fatalf("NDT = %v, want > 1 for racy outcomes", got)
	}
	// The reads observed two distinct rf sources each: their addresses
	// become fitaddrs when NDe > round(NDT).
	fit := r.FitAddrs()
	if math.Round(got) == 1 && len(fit) == 0 {
		t.Fatalf("no fitaddrs despite NDe=2 > round(NDT)=%v", math.Round(got))
	}
}

func TestNDeCountsDistinctPredecessors(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	serialMP(r, 102, 101)
	r.EndIteration()
	serialMP(r, 0, 101)
	r.EndIteration()
	keyY := memmodel.Key{TID: 2, Instr: 0}
	if got := r.NDe(keyY); got != 2 {
		t.Fatalf("NDe(reader of y) = %d, want 2 (init and writer)", got)
	}
	keyX := memmodel.Key{TID: 2, Instr: 1}
	if got := r.NDe(keyX); got != 1 {
		t.Fatalf("NDe(reader of x) = %d, want 1", got)
	}
}

func TestResetAllClearsRunState(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	serialMP(r, 102, 101)
	r.EndIteration()
	r.ResetAll()
	if r.NDT() != 0 || r.Iteration() != 0 || len(r.FitAddrs()) != 0 {
		t.Fatal("ResetAll left run state behind")
	}
}

func TestReadValueAndLastSerialized(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	r.CommitWrite(0, 0, 0, ax, 7, false)
	r.WriteSerialized(0, 0, 0, ax, 7)
	r.CommitWrite(0, 1, 0, ax, 9, false)
	r.WriteSerialized(0, 1, 0, ax, 9)
	r.CommitRead(1, 0, 0, ax, 9, false)
	if got, ok := r.ReadValue(1, 0, 0); !ok || got != 9 {
		t.Fatalf("ReadValue = %d,%v", got, ok)
	}
	if _, ok := r.ReadValue(5, 5, 0); ok {
		t.Error("missing read reported present")
	}
	if got, ok := r.LastSerializedValue(ax); !ok || got != 9 {
		t.Fatalf("LastSerializedValue = %d,%v, want 9", got, ok)
	}
	if _, ok := r.LastSerializedValue(ay); ok {
		t.Error("unwritten address reported serialized")
	}
}

func TestRMWEventsRecorded(t *testing.T) {
	r := NewRecorder(memmodel.TSO{})
	r.CommitWrite(0, 0, 0, ax, 5, false)
	r.WriteSerialized(0, 0, 0, ax, 5)
	// RMW on thread 1 reads 5, writes 6 — atomic pair.
	r.CommitRead(1, 0, 0, ax, 5, true)
	r.CommitWrite(1, 0, 1, ax, 6, true)
	r.WriteSerialized(1, 0, 1, ax, 6)
	if v := r.EndIteration(); v != nil {
		t.Fatalf("valid RMW rejected: %v", v)
	}
	// Broken atomicity: RMW reads the initial value although another
	// write serialized in between.
	r2 := NewRecorder(memmodel.TSO{})
	r2.CommitRead(1, 0, 0, ax, 0, true)
	r2.CommitWrite(1, 0, 1, ax, 6, true)
	r2.CommitWrite(0, 0, 0, ax, 5, false)
	r2.WriteSerialized(0, 0, 0, ax, 5)
	r2.WriteSerialized(1, 0, 1, ax, 6)
	if v := r2.EndIteration(); v == nil {
		t.Fatal("broken RMW atomicity accepted")
	}
}

// TestCollectiveRecorderMatchesNaive: a memoized recorder must return
// the same verdict stream as a naive one, and its memo must answer
// repeats of an ordering — including repeats in a later test-run
// (ResetAll), which leaves the memo alone.
func TestCollectiveRecorderMatchesNaive(t *testing.T) {
	outcomes := [][2]uint64{{102, 101}, {102, 0}, {102, 101}, {0, 0}, {102, 101}}
	naive := NewRecorder(memmodel.TSO{})
	coll := NewRecorder(memmodel.TSO{})
	memo := collective.NewMemo()
	coll.SetMemo(memo)
	for i, o := range outcomes {
		serialMP(naive, o[0], o[1])
		vn := naive.EndIteration()
		serialMP(coll, o[0], o[1])
		vc := coll.EndIteration()
		if (vn == nil) != (vc == nil) {
			t.Fatalf("iteration %d: naive violation=%v, collective violation=%v", i, vn, vc)
		}
		if vn != nil && vn.Result.Kind != vc.Result.Kind {
			t.Fatalf("iteration %d: kinds differ: %v vs %v", i, vn.Result.Kind, vc.Result.Kind)
		}
	}
	// 5 checks, 3 unique orderings, 2 repeats of {102,101}.
	if d := memo.Stats(); d.Checks != 5 || d.Unique != 3 || d.Hits != 2 {
		t.Fatalf("memo = %+v, want 5 checks / 3 unique / 2 hits", d)
	}

	// A new run repeating a known ordering is a hit.
	coll.ResetAll()
	serialMP(coll, 102, 101)
	if v := coll.EndIteration(); v != nil {
		t.Fatal(v)
	}
	if d := memo.Stats(); d.Checks != 6 || d.Hits != 3 || d.Unique != 3 {
		t.Fatalf("memo after ResetAll = %+v, want 6 checks / 3 hits / 3 unique", d)
	}
}

// TestCollectiveRecorderSharedMemoLocalCounters: two recorders sharing
// one memo keep their own fast-path counters — only the recorder whose
// submission the memo checked counts a check, the other's was a hit.
func TestCollectiveRecorderSharedMemoLocalCounters(t *testing.T) {
	memo := collective.NewMemo()
	a := NewRecorder(memmodel.TSO{})
	a.SetMemo(memo)
	b := NewRecorder(memmodel.TSO{})
	b.SetMemo(memo)
	for _, r := range []*Recorder{a, b} {
		serialMP(r, 102, 101)
		if v := r.EndIteration(); v != nil {
			t.Fatal(v)
		}
	}
	if fa, fb := a.Fastpath(), b.Fastpath(); fa.Checks != 1 || fb.Checks != 0 {
		t.Fatalf("fast-path checks: a %+v, b %+v; want 1 and 0", fa, fb)
	}
	// The shared memo model-checked the ordering exactly once.
	if d := memo.Stats(); d.Checks != 2 || d.Unique != 1 || d.Hits != 1 {
		t.Fatalf("memo stats = %+v, want 2 checks / 1 unique / 1 hit", d)
	}
}
