package coverage

import "testing"

func TestTotalCoverage(t *testing.T) {
	tr := NewTracker(10, DefaultParams())
	if tr.TotalCoverage() != 0 {
		t.Fatal("fresh tracker nonzero coverage")
	}
	tr.RecordID(0)
	tr.RecordID(1)
	tr.RecordID(1) // repeat
	if got := tr.TotalCoverage(); got != 0.2 {
		t.Fatalf("TotalCoverage = %v, want 0.2", got)
	}
	if tr.Covered() != 2 {
		t.Fatal("Covered wrong")
	}
}

func TestRecordOutsideTableIgnoredInCoverage(t *testing.T) {
	tr := NewTracker(4, DefaultParams())
	tr.RecordID(4)
	if tr.TotalCoverage() != 0 {
		t.Fatal("transition outside the table affected total coverage")
	}
}

func TestRunFitness(t *testing.T) {
	tr := NewTracker(10, DefaultParams())
	tr.StartRun()
	tr.RecordID(0)
	tr.RecordID(1)
	f := tr.EndRun()
	// All 10 are rare at first; run covered 2.
	if f != 0.2 {
		t.Fatalf("fitness = %v, want 0.2", f)
	}
}

func TestAdaptiveCutoffExcludesFrequent(t *testing.T) {
	params := Params{InitialCutoff: 2, LowFitness: 0.5, Patience: 1000}
	tr := NewTracker(2, params)
	// Hammer S0 until it is no longer rare.
	for i := 0; i < 5; i++ {
		tr.StartRun()
		tr.RecordID(0)
		tr.EndRun()
	}
	// Now a run covering only S0 gets 0 fitness contribution from it:
	// rare set = {S1}, covered = 0.
	tr.StartRun()
	tr.RecordID(0)
	if f := tr.EndRun(); f != 0 {
		t.Fatalf("fitness = %v, want 0 (S0 is frequent)", f)
	}
	// Covering the rare S1 yields 1.0.
	tr.StartRun()
	tr.RecordID(1)
	if f := tr.EndRun(); f != 1.0 {
		t.Fatalf("fitness = %v, want 1.0", f)
	}
}

func TestCutoffDoubling(t *testing.T) {
	params := Params{InitialCutoff: 1, LowFitness: 0.9, Patience: 3}
	tr := NewTracker(4, params)
	// Saturate all transitions so everything is frequent.
	for i := 0; i < 4; i++ {
		tr.RecordID(TransitionID(i))
	}
	start := tr.Cutoff()
	for i := 0; i < 3; i++ {
		tr.StartRun()
		tr.EndRun() // empty runs: rare set empty → unproductive
	}
	if tr.Cutoff() <= start {
		t.Fatalf("cutoff did not double: %d -> %d", start, tr.Cutoff())
	}
	if tr.Doublings() == 0 {
		t.Fatal("Doublings = 0")
	}
}

func TestCoverageMonotonic(t *testing.T) {
	tr := NewTracker(20, DefaultParams())
	last := 0.0
	for i := 0; i < 20; i++ {
		tr.StartRun()
		tr.RecordID(TransitionID(i))
		tr.EndRun()
		cur := tr.TotalCoverage()
		if cur < last {
			t.Fatalf("coverage decreased: %v -> %v", last, cur)
		}
		last = cur
	}
	if last != 1.0 {
		t.Fatalf("final coverage = %v, want 1.0", last)
	}
}

func TestZeroParamsGetDefaults(t *testing.T) {
	tr := NewTracker(1, Params{})
	if tr.Cutoff() != DefaultParams().InitialCutoff {
		t.Fatal("zero params did not default")
	}
}

// TestPartialParamsKeepExplicitFields is the NewTracker defaulting
// regression: defaults must apply per field. The tracker used to
// replace the whole Params with DefaultParams whenever InitialCutoff
// was zero (discarding explicitly-set LowFitness/Patience), and
// conversely a set InitialCutoff left Patience at zero — which made
// the cut-off double on the very first unproductive run.
func TestPartialParamsKeepExplicitFields(t *testing.T) {
	// Explicit InitialCutoff, defaulted Patience: one unproductive
	// run must NOT double the cut-off (Patience defaults to 25).
	tr := NewTracker(2, Params{InitialCutoff: 7})
	if tr.Cutoff() != 7 {
		t.Fatalf("explicit InitialCutoff lost: %d", tr.Cutoff())
	}
	tr.StartRun()
	tr.EndRun() // empty run: unproductive
	if tr.Cutoff() != 7 {
		t.Fatalf("cutoff doubled after one unproductive run (Patience not defaulted): %d", tr.Cutoff())
	}

	// Zero InitialCutoff with explicit LowFitness/Patience: the
	// explicit fields must survive. Patience 1: an unproductive run
	// doubles the (defaulted) cut-off immediately.
	tr = NewTracker(2, Params{LowFitness: 0.9, Patience: 1})
	if tr.Cutoff() != DefaultParams().InitialCutoff {
		t.Fatalf("zero InitialCutoff not defaulted: %d", tr.Cutoff())
	}
	tr.StartRun()
	tr.RecordID(0) // fitness 0.5 < 0.9: unproductive
	tr.EndRun()
	if tr.Doublings() != 1 {
		t.Fatalf("explicit LowFitness/Patience discarded: doublings = %d, want 1", tr.Doublings())
	}
}

// TestExactPerRunCounts is the EndRun regression: a run covering a
// transition more than once must be classified against its true
// pre-run count. The old tracker approximated the run's contribution
// as 1, so a pre-run count of 1 with two in-run hits looked like
// pre = 2 — at a cut-off of 2 the transition was misclassified as
// frequent and the run scored 0.
func TestExactPerRunCounts(t *testing.T) {
	params := Params{InitialCutoff: 2, LowFitness: 0.01, Patience: 1000}
	tr := NewTracker(1, params)

	// Seed the pre-run count at 1 (< cutoff 2: still rare).
	tr.StartRun()
	tr.RecordID(0)
	tr.EndRun()

	// The run under test hits the same transition twice, straddling
	// the cut-off (1 before, 3 after).
	tr.StartRun()
	tr.RecordID(0)
	tr.RecordID(0)
	if f := tr.EndRun(); f != 1.0 {
		t.Fatalf("fitness = %v, want 1.0 (pre-run count 1 < cutoff 2)", f)
	}

	// With the count now at 3 >= 2 the transition is frequent: the
	// rare set is empty and a further hit scores 0.
	tr.StartRun()
	tr.RecordID(0)
	if f := tr.EndRun(); f != 0 {
		t.Fatalf("fitness = %v, want 0 (transition now frequent)", f)
	}
}

// TestConcurrentCampaignIsolation is the fleet race audit: many
// trackers driven concurrently, one per goroutine as the fleet runs
// its campaigns, must be race-free. Run with -race to make this
// meaningful.
func TestConcurrentCampaignIsolation(t *testing.T) {
	const campaigns, runs = 8, 50
	done := make(chan float64)
	for c := 0; c < campaigns; c++ {
		tr := NewTracker(20, DefaultParams())
		go func() {
			for r := 0; r < runs; r++ {
				tr.StartRun()
				for i := 0; i < 20; i += 2 {
					tr.RecordID(TransitionID(i))
				}
				tr.EndRun()
			}
			done <- tr.TotalCoverage()
		}()
	}
	for i := 0; i < campaigns; i++ {
		if got := <-done; got != 0.5 {
			t.Errorf("campaign coverage = %v, want 0.5", got)
		}
	}
}

// TestRecordIDOutsideVocabularyDropped: IDs outside the vocabulary must
// not corrupt the flat count arrays.
func TestRecordIDOutsideVocabularyDropped(t *testing.T) {
	tr := NewTracker(4, DefaultParams())
	tr.RecordID(TransitionID(4))
	tr.RecordID(^TransitionID(0))
	if tr.TotalCoverage() != 0 || tr.Covered() != 0 {
		t.Fatal("out-of-vocabulary records affected coverage")
	}
}

// TestRecordIDAllocatesNothing gates the live record path: known and
// unknown IDs alike.
func TestRecordIDAllocatesNothing(t *testing.T) {
	tr := NewTracker(64, DefaultParams())
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.RecordID(TransitionID(i % 64))
		tr.RecordID(^TransitionID(0))
		i++
	}); n != 0 {
		t.Fatalf("RecordID allocates %v objects per call, want 0", n)
	}
}
