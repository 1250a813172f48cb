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

// randomThread is one random single-thread program of 2–13 events
// mixing reads, writes, all three fence flavours and atomic halves.
func randomThread(rng *rand.Rand) (*Execution, []relation.EventID) {
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
	return x, ids
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
		x, ids := randomThread(rng)
		n := len(ids)
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

// modelChain returns Names() and the models they name, strongest first.
func modelChain(t *testing.T) ([]string, []Arch) {
	t.Helper()
	names := Names()
	archs := make([]Arch, len(names))
	for i, name := range names {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		archs[i] = a
	}
	return names, archs
}

// TestPPOReachabilityNested holds what makes verdicts monotone along
// Names(): for each adjacent pair of models, every access a thread's
// weaker ppo edges order before another is ordered before it by the
// stronger model's edges too. Accesses are the domain, as in
// TestWeakPPOEdgesMatchNaive: conflict edges attach only to reads and
// writes, so a GHB cycle under the weaker model is one under the
// stronger. Every pair must also order some access pair the weaker one
// leaves unordered, or it would not be a chain.
func TestPPOReachabilityNested(t *testing.T) {
	names, archs := modelChain(t)
	rng := rand.New(rand.NewSource(43))
	stricter := make([]int, len(archs)-1)
	pairs := 0
	for trial := 0; trial < 2000; trial++ {
		x, ids := randomThread(rng)
		graphs := make([]*relation.Graph, len(archs))
		for i, a := range archs {
			graphs[i] = new(relation.Graph)
			a.PPOEdges(x, ids, graphs[i])
		}
		for i := range ids {
			for j := range ids {
				if i == j || x.Event(ids[i]).Kind == KindFence || x.Event(ids[j]).Kind == KindFence {
					continue
				}
				pairs++
				for k := 0; k+1 < len(archs); k++ {
					strong := reachable(graphs[k], ids[i], ids[j])
					weak := reachable(graphs[k+1], ids[i], ids[j])
					if weak && !strong {
						t.Fatalf("trial %d: %s orders access %d before %d, %s does not\nevents: %v",
							trial, names[k+1], i, j, names[k], x.Events())
					}
					if strong && !weak {
						stricter[k]++
					}
				}
			}
		}
	}
	for k, n := range stricter {
		if n == 0 {
			t.Errorf("%s orders no access pair %s leaves unordered", names[k], names[k+1])
		}
	}
	t.Logf("%d access pairs; strictly stronger orderings per adjacent pair: %v", pairs, stricter)
}

// randomRFCO records a random well-formed execution whose rf and co are
// drawn at random rather than observed: each read takes any write of its
// address as its source (another thread's, a po-later one or the initial
// write), and each address's writes enter co in a random order. Threads
// mix plain reads and writes, RMWs (atomic read and write halves of one
// instruction) and fences of all three flavours.
func randomRFCO(rng *rand.Rand, threads, ops, addrs int) *Execution {
	type op struct {
		key  Key
		kind int // 0 read, 1 write, 2 RMW, 3 fence
		addr memsys.Addr
	}
	prog := make([]op, ops)
	writes := map[memsys.Addr][]int{} // ops writing each address
	for i := range prog {
		o := op{key: Key{TID: rng.Intn(threads), Instr: i}, addr: memsys.Addr(0x1000 + 8*rng.Intn(addrs))}
		switch r := rng.Intn(10); {
		case r < 4:
			o.kind = 0
		case r < 8:
			o.kind = 1
		case r < 9:
			o.kind = 2
		default:
			o.kind = 3
		}
		if o.kind == 1 || o.kind == 2 {
			writes[o.addr] = append(writes[o.addr], i)
		}
		prog[i] = o
	}
	x := NewExecution()
	writeID := map[int]relation.EventID{}
	type read struct {
		id  relation.EventID
		src int // op index, or -1 for the initial write
	}
	var reads []read
	for i, o := range prog {
		if o.kind == 3 {
			x.AddEvent(Event{Key: o.key, Kind: KindFence, Fence: FenceKind(rng.Intn(int(NumFenceKinds)))})
			continue
		}
		if o.kind == 0 || o.kind == 2 {
			src, value := -1, uint64(0)
			if ws := writes[o.addr]; len(ws) > 0 && rng.Intn(len(ws)+1) > 0 {
				src = ws[rng.Intn(len(ws))]
				value = uint64(src + 1)
			}
			id := x.AddEvent(Event{Key: o.key, Kind: KindRead, Addr: o.addr, Value: value, Atomic: o.kind == 2})
			reads = append(reads, read{id, src})
		}
		if o.kind == 1 || o.kind == 2 {
			k := o.key
			if o.kind == 2 {
				k.Sub = 1
			}
			writeID[i] = x.AddEvent(Event{Key: k, Kind: KindWrite, Addr: o.addr, Value: uint64(i + 1), Atomic: o.kind == 2})
		}
	}
	for _, r := range reads {
		w, ok := writeID[r.src]
		if !ok {
			w = x.InitWrite(x.Event(r.id).Addr)
		}
		if err := x.SetRF(r.id, w); err != nil {
			panic(err)
		}
	}
	for a := 0; a < addrs; a++ {
		ws := writes[memsys.Addr(0x1000+8*a)]
		for _, k := range rng.Perm(len(ws)) {
			if err := x.AppendCO(writeID[ws[k]]); err != nil {
				panic(err)
			}
		}
	}
	return x
}

// TestModelContainment: verdicts are monotone along Names() — an
// execution valid under a model is valid under every weaker one — on
// executions whose rf and co are random rather than those of an
// interleaving, so most are rejected by some model. The sample must also
// hold, for each adjacent pair, executions the weaker model accepts and
// the stronger rejects, or it says nothing about the pair.
func TestModelContainment(t *testing.T) {
	names, archs := modelChain(t)
	rng := rand.New(rand.NewSource(17))
	c := NewChecker()
	separated := make([]int, len(names)-1)
	valid := make([]int, len(names))
	const executions = 20000
	for trial := 0; trial < executions; trial++ {
		x := randomRFCO(rng, 2+rng.Intn(3), 4+rng.Intn(8), 2+rng.Intn(2))
		verdicts := make([]bool, len(names))
		for i, a := range archs {
			verdicts[i] = c.Check(x, a).Valid
			if verdicts[i] {
				valid[i]++
			}
		}
		for k := 0; k+1 < len(names); k++ {
			switch {
			case verdicts[k] && !verdicts[k+1]:
				t.Fatalf("trial %d: execution valid under %s but invalid under %s\nevents: %v",
					trial, names[k], names[k+1], x.Events())
			case !verdicts[k] && verdicts[k+1]:
				separated[k]++
			}
		}
	}
	t.Logf("%d executions; valid per model %v; weaker-only valid per adjacent pair %v", executions, valid, separated)
	for k, n := range separated {
		if n < 20 {
			t.Errorf("%d executions valid under %s and invalid under %s, want at least 20", n, names[k+1], names[k])
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
