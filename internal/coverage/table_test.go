package coverage

import (
	"fmt"
	"math/rand"
	"testing"
)

func vocab(n int) []Transition {
	out := make([]Transition, n)
	for i := range out {
		out[i] = Transition{"C", fmt.Sprintf("S%02d", i), "E"}
	}
	return out
}

func TestTableRoundTrip(t *testing.T) {
	all := vocab(37)
	tb := NewTable(all)
	if tb.Len() != 37 {
		t.Fatalf("Len = %d, want 37", tb.Len())
	}
	for _, tr := range all {
		id, ok := tb.ID(tr)
		if !ok {
			t.Fatalf("ID(%v) not found", tr)
		}
		back, ok := tb.Lookup(id)
		if !ok || back != tr {
			t.Fatalf("Lookup(ID(%v)) = %v, %v", tr, back, ok)
		}
	}
}

func TestTableUnknown(t *testing.T) {
	tb := NewTable(vocab(4))
	if _, ok := tb.ID(Transition{"X", "weird", "E"}); ok {
		t.Fatal("unknown transition resolved")
	}
	if _, ok := tb.Lookup(TransitionID(99)); ok {
		t.Fatal("out-of-range ID resolved")
	}
	if _, ok := tb.Lookup(NoTransitionID); ok {
		t.Fatal("NoTransitionID resolved")
	}
}

// TestTableIDsOrderIndependent: the protocol tables enumerate Go maps,
// so the vocabulary arrives in random order — interned IDs must not
// depend on it (fleet workers merge count vectors by ID).
func TestTableIDsOrderIndependent(t *testing.T) {
	all := vocab(50)
	shuffled := append([]Transition(nil), all...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, b := NewTable(all), NewTable(shuffled)
	for _, tr := range all {
		ia, _ := a.ID(tr)
		ib, _ := b.ID(tr)
		if ia != ib {
			t.Fatalf("ID(%v) depends on input order: %d vs %d", tr, ia, ib)
		}
	}
}

func TestTableDedupes(t *testing.T) {
	all := append(vocab(5), vocab(5)...)
	if tb := NewTable(all); tb.Len() != 5 {
		t.Fatalf("Len = %d, want 5 after dedupe", tb.Len())
	}
}

// TestRecordIDOutsideVocabularyDropped: unknown IDs must not corrupt
// the flat count arrays.
func TestRecordIDOutsideVocabularyDropped(t *testing.T) {
	tr := NewTracker(vocab(4), DefaultParams())
	tr.RecordID(TransitionID(4))
	tr.RecordID(NoTransitionID)
	if tr.TotalCoverage() != 0 || tr.Covered() != 0 {
		t.Fatal("out-of-vocabulary records affected coverage")
	}
	if tr.UnknownRecords() != 2 {
		t.Fatalf("UnknownRecords = %d, want 2", tr.UnknownRecords())
	}
}

// TestRecordIDAllocatesNothing gates the live record path: known and
// unknown IDs alike.
func TestRecordIDAllocatesNothing(t *testing.T) {
	tr := NewTracker(vocab(64), DefaultParams())
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.RecordID(TransitionID(i % 64))
		tr.RecordID(NoTransitionID)
		i++
	}); n != 0 {
		t.Fatalf("RecordID allocates %v objects per call, want 0", n)
	}
}
