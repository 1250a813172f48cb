package checker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/testgen"
)

// replaySC commits one sequentially consistent execution of progs, the
// threads interleaved at random, into every recorder.
func replaySC(progs []testgen.Program, rng *rand.Rand, recs ...*Recorder) {
	var schedule []int
	for tid, p := range progs {
		for range p {
			schedule = append(schedule, tid)
		}
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	mem := map[memsys.Addr]uint64{}
	next := make([]int, len(progs))
	for _, tid := range schedule {
		idx := next[tid]
		next[tid]++
		in := &progs[tid][idx]
		word := in.Addr.WordAddr()
		for _, r := range recs {
			switch in.Kind {
			case testgen.OpRead, testgen.OpReadAddrDp:
				r.CommitRead(tid, idx, 0, in.Addr, mem[word], false)
			case testgen.OpWrite:
				r.CommitWrite(tid, idx, 0, in.Addr, in.WriteID, false)
				r.WriteSerialized(tid, idx, 0, in.Addr, in.WriteID)
			case testgen.OpRMW:
				r.CommitRead(tid, idx, 0, in.Addr, mem[word], true)
				r.CommitWrite(tid, idx, 1, in.Addr, in.WriteID, true)
				r.WriteSerialized(tid, idx, 1, in.Addr, in.WriteID)
			case testgen.OpFence:
				r.CommitFence(tid, idx, 0, in.Fence)
			}
		}
		if in.Kind == testgen.OpWrite || in.Kind == testgen.OpRMW {
			mem[word] = in.WriteID
		}
	}
}

// refRun is the map-keyed rfcoRUN bookkeeping the recorder's dense
// tables replaced, fed from completed executions: Definitions 1–3
// computed the obvious way.
type refRun struct {
	events map[memmodel.Key]memsys.Addr
	preds  map[memmodel.Key]map[memmodel.Key]bool
	edges  int
}

func newRefRun() *refRun {
	return &refRun{events: map[memmodel.Key]memsys.Addr{}, preds: map[memmodel.Key]map[memmodel.Key]bool{}}
}

func (rr *refRun) fold(x *memmodel.Execution) {
	// Every initial write is one event per word, whether or not the
	// iteration materialized it.
	initKey := func(addr memsys.Addr) memmodel.Key {
		return memmodel.Key{TID: memmodel.InitTID, Instr: int(addr >> 3)}
	}
	key := func(ev *memmodel.Event) memmodel.Key {
		if ev.IsInit() {
			return initKey(ev.Addr)
		}
		return ev.Key
	}
	edge := func(p memmodel.Key, s *memmodel.Event) {
		if rr.preds[s.Key] == nil {
			rr.preds[s.Key] = map[memmodel.Key]bool{}
		}
		if !rr.preds[s.Key][p] {
			rr.preds[s.Key][p] = true
			rr.edges++
		}
	}
	events := x.Events()
	for i := range events {
		ev := &events[i]
		if ev.IsInit() || ev.Kind == memmodel.KindFence {
			continue
		}
		rr.events[ev.Key] = ev.Addr
		if ev.IsRead() {
			w, _ := x.RF(ev.ID)
			edge(key(x.Event(w)), ev)
		}
	}
	for _, addr := range x.Addresses() {
		// co's immediate edges, the initial write co-first.
		p := initKey(addr)
		for _, id := range x.CO(addr) {
			if w := x.Event(id); !w.IsInit() {
				edge(p, w)
				p = w.Key
			}
		}
	}
}

// TestReusedRecorderMatchesReference runs one long-lived recorder, which
// reuses its execution object, its slot table and its run entries across
// iterations and test-runs of changing shape, beside a recorder whose
// executions are taken out every iteration. Verdicts and signatures must
// agree, and NDT, NDe and FitAddrs must equal the map-keyed reference
// computed from the taken executions.
func TestReusedRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused, lending := NewRecorder(memmodel.TSO{}), NewRecorder(memmodel.TSO{})
	reusedMemo, lendingMemo := collective.NewMemo(), collective.NewMemo()
	reused.SetMemo(reusedMemo)
	lending.SetMemo(lendingMemo)
	for run := 0; run < 12; run++ {
		gen, err := testgen.NewGenerator(testgen.Config{
			Size: 40 + 30*(run%4), Threads: 2 + run%5, Layout: memsys.MustLayout(128, 16),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := testgen.Compile(gen.NewTest())
		if err != nil {
			t.Fatal(err)
		}
		reused.ResetAll()
		lending.ResetAll()
		ref := newRefRun()
		var lastReused *memmodel.Execution
		for iter := 0; iter < 6; iter++ {
			replaySC(progs, rng, reused, lending)
			if iter > 0 && reused.exec != lastReused {
				t.Fatalf("run %d iter %d: recorder did not reuse its execution", run, iter)
			}
			lastReused = reused.exec
			x := lending.Execution()
			n := x.NumEvents()
			v1, v2 := reused.EndIteration(), lending.EndIteration()
			if v1 != nil || v2 != nil {
				t.Fatalf("run %d iter %d: SC execution rejected: %v / %v", run, iter, v1, v2)
			}
			if lending.Execution() == x || x.NumEvents() < n {
				t.Fatalf("run %d iter %d: an execution taken from the recorder was recycled", run, iter)
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("run %d iter %d: taken execution incomplete: %v", run, iter, err)
			}
			ref.fold(x)
			if a, b := reusedMemo.Stats(), lendingMemo.Stats(); a != b {
				t.Fatalf("run %d iter %d: memo %+v vs %+v: signatures diverge", run, iter, a, b)
			}
		}
		wantNDT := float64(ref.edges) / float64(len(ref.events))
		if got := reused.NDT(); got != wantNDT {
			t.Fatalf("run %d: NDT = %v, reference %v", run, got, wantNDT)
		}
		wantFit := map[memsys.Addr]bool{}
		for key, addr := range ref.events {
			if got := reused.NDe(key); got != len(ref.preds[key]) {
				t.Fatalf("run %d: NDe(%v) = %d, reference %d", run, key, got, len(ref.preds[key]))
			}
			if len(ref.preds[key]) > int(math.Round(wantNDT)) {
				wantFit[addr] = true
			}
		}
		gotFit := reused.FitAddrs(map[memsys.Addr]bool{})
		if len(gotFit) != len(wantFit) {
			t.Fatalf("run %d: FitAddrs = %v, reference %v", run, gotFit, wantFit)
		}
		for addr := range wantFit {
			if !gotFit[addr] {
				t.Fatalf("run %d: FitAddrs lacks %v", run, addr)
			}
		}
		if got := reused.NDe(memmodel.Key{TID: 31, Instr: 9999}); got != 0 {
			t.Fatalf("run %d: NDe of an event that never ran = %d", run, got)
		}
	}
}
