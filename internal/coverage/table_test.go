package coverage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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
	// Transitions() is the vocabulary in ID order.
	for i, tr := range tb.Transitions() {
		if id, _ := tb.ID(tr); id != TransitionID(i) {
			t.Fatalf("Transitions()[%d] has ID %d", i, id)
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
// unknown IDs alike, on a worker shard and on the built-in one.
func TestRecordIDAllocatesNothing(t *testing.T) {
	tr := NewTracker(vocab(64), DefaultParams())
	shard := tr.NewShard()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		shard.RecordID(TransitionID(i % 64))
		tr.RecordID(TransitionID(i % 64))
		shard.RecordID(NoTransitionID)
		i++
	}); n != 0 {
		t.Fatalf("RecordID allocates %v objects per call, want 0", n)
	}
}

// TestRecordIDRace hammers the lock-free record path from GOMAXPROCS
// goroutines — through per-worker shards and through the tracker's
// built-in shard — with concurrent read-side inspection and run
// boundaries. Run with -race to make this meaningful (CI does).
func TestRecordIDRace(t *testing.T) {
	const n = 64
	tr := NewTracker(vocab(n), DefaultParams())
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := tr.NewShard()
			if w%2 == 0 {
				shard = nil // hammer the shared built-in shard instead
			}
			for i := 0; i < 5000; i++ {
				id := TransitionID((i * 13) % n)
				if shard != nil {
					shard.RecordID(id)
				} else {
					tr.RecordID(id)
				}
				if i%512 == 0 && shard != nil {
					shard.StartRun()
					_ = shard.EndRun()
				}
			}
			if shard != nil {
				_ = shard.EndRun()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = tr.TotalCoverage()
			_ = tr.Covered()
			_ = tr.Cutoff()
			_ = tr.Uncovered()
			_ = tr.Snapshot(nil)
		}
	}()
	wg.Wait()

	// Every record must land exactly once in the global counts.
	total := uint64(0)
	for _, c := range tr.Snapshot(nil) {
		total += c
	}
	if want := uint64(workers) * 5000; total != want {
		t.Fatalf("lost records: counted %d, want %d", total, want)
	}
	if tr.UnknownRecords() != 0 {
		t.Fatalf("UnknownRecords = %d, want 0", tr.UnknownRecords())
	}
}
