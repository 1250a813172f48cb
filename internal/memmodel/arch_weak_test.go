package memmodel

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// naiveOrdered is the textbook pairwise definition of each model's
// preserved program order between mem events i < j (fences enter only
// through the between-ness of their flavour; atomics imply full
// fences). The cycle search only needs reachability, so the generated
// edge sets are compared against the reachability closure of this
// predicate.
func naiveOrdered(model string, events []Event, i, j int) bool {
	a, b := &events[i], &events[j]
	betweenFull, betweenWW, betweenLL := false, false, false
	for k := i + 1; k < j; k++ {
		e := &events[k]
		if e.IsFullFence() {
			betweenFull = true
		}
		if e.OrdersWW() {
			betweenWW = true
		}
		if e.OrdersRR() {
			betweenLL = true
		}
	}
	if a.IsFullFence() || b.IsFullFence() {
		return true
	}
	switch model {
	case "SC":
		return true
	case "TSO":
		if a.IsWrite() && b.IsRead() {
			return betweenFull
		}
		return true
	case "PSO":
		if a.IsRead() {
			return true
		}
		if b.IsWrite() {
			return betweenWW
		}
		return betweenFull // W→R
	case "RMO":
		switch {
		case a.IsRead() && b.IsRead():
			return betweenLL
		case a.IsWrite() && b.IsWrite():
			return betweenWW
		default:
			return betweenFull // R→W and W→R
		}
	}
	return false
}

// TestWeakPPOEdgesMatchNaive cross-checks every model's compact edge
// set against the naive all-pairs closure on random single-thread
// programs mixing reads, writes, all three fence flavours and atomic
// halves. Mem-to-mem reachability is the comparison domain: conflict
// edges only ever attach to mem events, so GHB cycles cannot pass
// through a fence except along a ppo path between mem events.
func TestWeakPPOEdgesMatchNaive(t *testing.T) {
	archs := map[string]Arch{"SC": SC{}, "TSO": TSO{}, "PSO": PSO{}, "RMO": RMO{}}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		x := NewExecution()
		n := 2 + rng.Intn(12)
		var ids []relation.EventID
		for i := 0; i < n; i++ {
			e := Event{Key: Key{TID: 0, Instr: i}, Addr: memsys.Addr(0x1000)}
			switch rng.Intn(8) {
			case 0:
				e.Kind = KindFence
				e.Fence = FenceFull
			case 1:
				e.Kind = KindFence
				e.Fence = FenceSS
			case 2:
				e.Kind = KindFence
				e.Fence = FenceLL
			case 3:
				e.Kind = KindRead
				e.Atomic = true
			case 4, 5:
				e.Kind = KindWrite
				if rng.Intn(4) == 0 {
					e.Atomic = true
				}
			default:
				e.Kind = KindRead
			}
			ids = append(ids, x.AddEvent(e))
		}
		// Naive closure per model over mem events.
		for name, arch := range archs {
			naive := new(relation.Graph)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if x.Events()[i].Kind == KindFence || x.Events()[j].Kind == KindFence {
						continue
					}
					if naiveOrdered(name, x.Events(), i, j) {
						naive.Add(ids[i], ids[j])
					}
				}
			}
			got := new(relation.Graph)
			arch.PPOEdges(x, ids, got)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if x.Events()[i].Kind == KindFence || x.Events()[j].Kind == KindFence {
						continue
					}
					want := reachable(naive, ids[i], ids[j])
					have := reachable(got, ids[i], ids[j])
					if want != have {
						t.Fatalf("trial %d %s: events %v: ordered(%d,%d) = %v, want %v\nedges: %v",
							trial, name, x.Events(), i, j, have, want, got.Edges())
					}
					if reachable(got, ids[j], ids[i]) {
						t.Fatalf("trial %d %s: backwards reachability %d<-%d", trial, name, i, j)
					}
				}
			}
		}
	}
}

// TestModelContainment: on random valid executions, a weaker model
// never rejects what a stronger model accepts (SC ⊆ TSO ⊆ PSO ⊆ RMO in
// permissiveness). Random candidate executions are built the same way
// TestSCStricterThanTSO builds them — as real interleavings — and the
// chain is checked pairwise.
func TestModelContainment(t *testing.T) {
	chain := []Arch{SC{}, TSO{}, PSO{}, RMO{}}
	rng := rand.New(rand.NewSource(17))
	addrs := []memsys.Addr{0x1000, 0x1040, 0x1080}
	for trial := 0; trial < 300; trial++ {
		x := NewExecution()
		mem := map[memsys.Addr]relation.EventID{}
		val := map[memsys.Addr]uint64{}
		instr := map[int]int{}
		nOps := 3 + rng.Intn(10)
		type rf struct{ r, w relation.EventID }
		var pending []rf
		for i := 0; i < nOps; i++ {
			tid := 1 + rng.Intn(3)
			a := addrs[rng.Intn(len(addrs))]
			in := instr[tid]
			instr[tid] = in + 1
			switch rng.Intn(5) {
			case 0:
				x.AddEvent(Event{Key: Key{TID: tid, Instr: in}, Kind: KindFence, Fence: FenceKind(rng.Intn(int(NumFenceKinds)))})
			case 1, 2:
				v := uint64(i + 1)
				id := x.AddEvent(Event{Key: Key{TID: tid, Instr: in}, Kind: KindWrite, Addr: a, Value: v})
				if err := x.AppendCO(id); err != nil {
					t.Fatal(err)
				}
				mem[a], val[a] = id, v
			default:
				id := x.AddEvent(Event{Key: Key{TID: tid, Instr: in}, Kind: KindRead, Addr: a, Value: val[a]})
				w, ok := mem[a]
				if !ok {
					w = x.InitWrite(a)
				}
				pending = append(pending, rf{id, w})
			}
		}
		for _, p := range pending {
			if err := x.SetRF(p.r, p.w); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k+1 < len(chain); k++ {
			strong, weak := chain[k], chain[k+1]
			if NewChecker().Check(x, strong).Valid && !NewChecker().Check(x, weak).Valid {
				t.Fatalf("trial %d: execution valid under %s but invalid under %s",
					trial, strong.Name(), weak.Name())
			}
		}
		// Interleavings are SC-valid by construction, hence valid
		// everywhere down the chain.
		if res := NewChecker().Check(x, SC{}); !res.Valid {
			t.Fatalf("trial %d: interleaved execution invalid under SC: %s", trial, res.Detail)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ByName("POWER"); err == nil {
		t.Error("unknown model accepted")
	} else if want := "RMO"; !contains(err.Error(), want) {
		t.Errorf("error %q does not list %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
