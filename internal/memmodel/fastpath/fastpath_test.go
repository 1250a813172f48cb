package fastpath

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/relation"
)

// randExec builds a random execution by simulating one SC interleaving
// on the public Builder: threads step in random order against a flat
// memory, writes serialize into co in registration order, reads pin rf
// to the current write (or the initial write). The result is
// SC-consistent, hence valid under every bundled model. Fences of all
// flavours and atomic RMW pairs are sprinkled in. Keys are explicit
// because the interleaving appends threads' events out of program
// order.
func randExec(rng *rand.Rand) *memmodel.Execution {
	b := memmodel.NewBuilder()
	nThreads := 2 + rng.Intn(3)
	nAddrs := 2 + rng.Intn(2)
	addrs := make([]memsys.Addr, nAddrs)
	for i := range addrs {
		addrs[i] = memsys.Addr(0x100 + 8*i)
	}
	// mem is the flat memory: last write (and its value) per address;
	// addresses never written read from the implicit initial write.
	type cell struct {
		id  relation.EventID
		val uint64
		ok  bool
	}
	mem := make(map[memsys.Addr]cell)
	nextVal := uint64(1)

	type thState struct{ instr int }
	threads := make([]thState, nThreads)
	steps := nThreads * (4 + rng.Intn(7))

	writeTo := func(tid int, addr memsys.Addr, atomic bool, instr, sub int) {
		id := b.WriteKeyed(memmodel.Key{TID: tid, Instr: instr, Sub: sub}, addr, nextVal, atomic)
		mem[addr] = cell{id: id, val: nextVal, ok: true}
		nextVal++
	}
	readFrom := func(tid int, addr memsys.Addr, atomic bool, instr, sub int) {
		c := mem[addr]
		id := b.ReadKeyed(memmodel.Key{TID: tid, Instr: instr, Sub: sub}, addr, c.val, atomic)
		if c.ok {
			b.SetRF(id, c.id)
		} else {
			b.SetRFInit(id)
		}
	}

	for s := 0; s < steps; s++ {
		tid := rng.Intn(nThreads)
		instr := threads[tid].instr
		threads[tid].instr++
		addr := addrs[rng.Intn(nAddrs)]
		switch r := rng.Intn(10); {
		case r < 4:
			readFrom(tid, addr, false, instr, 0)
		case r < 8:
			writeTo(tid, addr, false, instr, 0)
		case r < 9:
			// Atomic RMW: read then write of the same instruction; the
			// write lands immediately after the source in co because no
			// other thread steps in between.
			readFrom(tid, addr, true, instr, 0)
			writeTo(tid, addr, true, instr, 1)
		default:
			b.FenceKeyed(memmodel.Key{TID: tid, Instr: instr},
				memmodel.FenceKind(rng.Intn(int(memmodel.NumFenceKinds))))
		}
	}
	return b.MustBuild()
}

// mutate perturbs a valid execution into a (usually) invalid or
// structurally broken one: rewiring rf, permuting co, or corrupting a
// read value. It returns the execution to check (a rebuilt copy for co
// permutations) and whether a mutation applied.
func mutate(x *memmodel.Execution, rng *rand.Rand) (*memmodel.Execution, bool) {
	var reads []relation.EventID
	byAddr := make(map[memsys.Addr][]relation.EventID)
	for _, e := range x.Events() {
		if e.IsRead() {
			reads = append(reads, e.ID)
		}
		if e.IsWrite() {
			byAddr[e.Addr] = append(byAddr[e.Addr], e.ID)
		}
	}
	switch rng.Intn(3) {
	case 0: // rewire one read to a random same-address write, fixing the value
		if len(reads) == 0 {
			return x, false
		}
		r := reads[rng.Intn(len(reads))]
		cands := byAddr[x.Event(r).Addr]
		if len(cands) < 2 {
			return x, false
		}
		w := cands[rng.Intn(len(cands))]
		if err := x.SetRF(r, w); err != nil {
			return x, false
		}
		x.Event(r).Value = x.Event(w).Value
		return x, true
	case 1: // swap two adjacent non-init writes in some address's co order
		addrs := x.Addresses()
		for _, k := range rng.Perm(len(addrs)) {
			addr := addrs[k]
			order := x.CO(addr)
			start := 0
			if len(order) > 0 && x.Event(order[0]).IsInit() {
				start = 1
			}
			if len(order)-start < 2 {
				continue
			}
			i := start + rng.Intn(len(order)-start-1)
			swapped := append([]relation.EventID(nil), order...)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			return rebuildWithCO(x, addr, swapped), true
		}
		return x, false
	default: // corrupt a read's value: structurally malformed
		if len(reads) == 0 {
			return x, false
		}
		r := reads[rng.Intn(len(reads))]
		x.Event(r).Value += 1_000_000
		return x, true
	}
}

// rebuildWithCO replays x into a fresh execution, identical except that
// addr's coherence order becomes newOrder. Events are replayed in ID
// order, so every ID, Key and PO is preserved; the initial write stays
// co-minimal because AppendCO only sees non-init writes.
func rebuildWithCO(x *memmodel.Execution, addr memsys.Addr, newOrder []relation.EventID) *memmodel.Execution {
	x2 := memmodel.NewExecution()
	for _, e := range x.Events() {
		if e.IsInit() {
			x2.InitWrite(e.Addr)
			continue
		}
		x2.AddEvent(memmodel.Event{
			Key: e.Key, Kind: e.Kind, Fence: e.Fence,
			Addr: e.Addr, Value: e.Value, Atomic: e.Atomic,
		})
	}
	for _, a := range x.Addresses() {
		order := x.CO(a)
		if a == addr {
			order = newOrder
		}
		for _, w := range order {
			if x.Event(w).IsInit() {
				continue
			}
			if err := x2.AppendCO(w); err != nil {
				panic(err)
			}
		}
	}
	for _, e := range x.Events() {
		if e.IsRead() {
			w, _ := x.RF(e.ID)
			if err := x2.SetRF(e.ID, w); err != nil {
				panic(err)
			}
		}
	}
	return x2
}

// check decides x on the deployed route — a memmodel.Checker running c
// as its fast pass, exact fallback behind it — and returns the clock
// pass's own verdict beside the Result.
func check(c *Checker, x *memmodel.Execution, arch memmodel.Arch) (memmodel.Result, Verdict) {
	return memmodel.NewChecker(memmodel.WithFastDecider(c)).Check(x, arch), c.Decide(x, arch)
}

// diffCheck compares the deployed route against the exact checker;
// callers share one Checker per test to exercise scratch reuse across
// executions — the deployment shape.
func diffCheck(t *testing.T, c *Checker, x *memmodel.Execution, arch memmodel.Arch) {
	t.Helper()
	exact := memmodel.NewChecker().Check(x, arch)
	res, v := check(c, x, arch)
	if !reflect.DeepEqual(res, exact) {
		t.Fatalf("%s: fastpath Result diverges:\n fast: %+v\nexact: %+v", arch.Name(), res, exact)
	}
	switch v.Outcome {
	case OutcomeValid:
		if !exact.Valid {
			t.Fatalf("%s: fastpath says valid, exact says %s: %s", arch.Name(), exact.Kind, exact.Detail)
		}
	case OutcomeInvalid:
		if exact.Valid {
			t.Fatalf("%s: fastpath says invalid(%s), exact says valid", arch.Name(), v.Kind)
		}
		if v.Kind != exact.Kind {
			t.Fatalf("%s: fastpath kind %s, exact kind %s (%s)", arch.Name(), v.Kind, exact.Kind, exact.Detail)
		}
	}
	if Supported(arch) && v.Outcome == OutcomeInconclusive && x.Validate() == nil {
		t.Fatalf("%s: inconclusive on a well-formed execution of a supported model", arch.Name())
	}
	if !Supported(arch) && v.Outcome != OutcomeInconclusive {
		t.Fatalf("%s: unsupported model decided conclusively (%s)", arch.Name(), v.Outcome)
	}
}

// TestDifferentialFuzz feeds randomized valid and mutated-invalid
// executions to the fastpath and exact checkers across every bundled
// model, asserting Result identity and verdict/kind agreement for all
// conclusive answers. Runs under -race in CI short mode.
func TestDifferentialFuzz(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 80
	}
	c := New()
	rng := rand.New(rand.NewSource(0xfa57))
	for i := 0; i < iters; i++ {
		x := randExec(rng)
		if rng.Intn(3) > 0 {
			x, _ = mutate(x, rng)
		}
		for _, name := range memmodel.Names() {
			arch, _ := memmodel.ByName(name)
			diffCheck(t, c, x, arch)
		}
	}
}

// TestValidByConstruction asserts the clock pass proves SC-simulated
// executions valid on its own — no fallback — for every supported
// model, pinning the ≥95% conclusive-coverage claim to the shape the
// default campaigns produce.
func TestValidByConstruction(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		x := randExec(rng)
		for _, name := range []string{"SC", "TSO", "PSO"} {
			arch, _ := memmodel.ByName(name)
			if v := c.Decide(x, arch); v.Outcome != OutcomeValid {
				t.Fatalf("%s: SC interleaving not proven valid: %+v", name, v)
			}
		}
	}
}

// TestUniprocRules pins each of the four adjacent-pair frontier rules
// with a hand-built violation.
func TestUniprocRules(t *testing.T) {
	const a = memsys.Addr(0x40)
	t.Run("CoWW", func(t *testing.T) {
		// One thread writes v1 then v2, but co orders v2 before v1.
		x := memmodel.NewExecution()
		w1 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 0}, Kind: memmodel.KindWrite, Addr: a, Value: 1})
		w2 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 1}, Kind: memmodel.KindWrite, Addr: a, Value: 2})
		mustCO(t, x, w2)
		mustCO(t, x, w1)
		assertInvalid(t, x, memmodel.ViolationUniproc)
	})
	t.Run("CoRW", func(t *testing.T) {
		// Read takes the second write's value, then the thread's own
		// write is co-ordered before the read's source.
		x := memmodel.NewExecution()
		wOther := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 1, Instr: 0}, Kind: memmodel.KindWrite, Addr: a, Value: 7})
		r := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 0}, Kind: memmodel.KindRead, Addr: a, Value: 7})
		w := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 1}, Kind: memmodel.KindWrite, Addr: a, Value: 3})
		mustCO(t, x, w)
		mustCO(t, x, wOther)
		mustRF(t, x, r, wOther)
		assertInvalid(t, x, memmodel.ViolationUniproc)
	})
	t.Run("CoRR", func(t *testing.T) {
		// Two po-adjacent reads observe two writes in anti-co order.
		x := memmodel.NewExecution()
		w1 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 1, Instr: 0}, Kind: memmodel.KindWrite, Addr: a, Value: 1})
		w2 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 1, Instr: 1}, Kind: memmodel.KindWrite, Addr: a, Value: 2})
		mustCO(t, x, w1)
		mustCO(t, x, w2)
		r1 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 0}, Kind: memmodel.KindRead, Addr: a, Value: 2})
		r2 := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 1}, Kind: memmodel.KindRead, Addr: a, Value: 1})
		mustRF(t, x, r1, w2)
		mustRF(t, x, r2, w1)
		assertInvalid(t, x, memmodel.ViolationUniproc)
	})
	t.Run("FutureRead", func(t *testing.T) {
		// A read observes its own thread's po-later write.
		x := memmodel.NewExecution()
		r := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 0}, Kind: memmodel.KindRead, Addr: a, Value: 5})
		w := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 1}, Kind: memmodel.KindWrite, Addr: a, Value: 5})
		mustCO(t, x, w)
		mustRF(t, x, r, w)
		assertInvalid(t, x, memmodel.ViolationUniproc)
	})
}

// TestGHBStoreBuffering pins the model split on the SB shape: two
// threads each write one flag then read the other's, both reading
// stale — forbidden under SC, allowed under TSO.
func TestGHBStoreBuffering(t *testing.T) {
	const ax, ay = memsys.Addr(0x10), memsys.Addr(0x18)
	x := memmodel.NewExecution()
	wx := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 0}, Kind: memmodel.KindWrite, Addr: ax, Value: 1})
	ry := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 0, Instr: 1}, Kind: memmodel.KindRead, Addr: ay, Value: 0})
	wy := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 1, Instr: 0}, Kind: memmodel.KindWrite, Addr: ay, Value: 1})
	rx := x.AddEvent(memmodel.Event{Key: memmodel.Key{TID: 1, Instr: 1}, Kind: memmodel.KindRead, Addr: ax, Value: 0})
	mustCO(t, x, wx)
	mustCO(t, x, wy)
	mustRF(t, x, ry, x.InitWrite(ay))
	mustRF(t, x, rx, x.InitWrite(ax))

	c := New()
	sc, _ := memmodel.ByName("SC")
	tso, _ := memmodel.ByName("TSO")
	if res, v := check(c, x, sc); res.Valid || v.Outcome != OutcomeInvalid || v.Kind != memmodel.ViolationGHB {
		t.Fatalf("SB under SC: res=%+v verdict=%+v", res, v)
	}
	if res, v := check(c, x, tso); !res.Valid || v.Outcome != OutcomeValid {
		t.Fatalf("SB under TSO: res=%+v verdict=%+v", res, v)
	}
}

func mustCO(t *testing.T, x *memmodel.Execution, w relation.EventID) {
	t.Helper()
	if err := x.AppendCO(w); err != nil {
		t.Fatal(err)
	}
}

func mustRF(t *testing.T, x *memmodel.Execution, r, w relation.EventID) {
	t.Helper()
	if err := x.SetRF(r, w); err != nil {
		t.Fatal(err)
	}
}

func assertInvalid(t *testing.T, x *memmodel.Execution, kind memmodel.ViolationKind) {
	t.Helper()
	c := New()
	for _, name := range []string{"SC", "TSO", "PSO"} {
		arch, _ := memmodel.ByName(name)
		res, v := check(c, x, arch)
		exact := memmodel.NewChecker().Check(x, arch)
		if !reflect.DeepEqual(res, exact) {
			t.Fatalf("%s: Result diverges:\n fast: %+v\nexact: %+v", name, res, exact)
		}
		if v.Outcome != OutcomeInvalid || v.Kind != kind {
			t.Fatalf("%s: verdict %+v, want invalid %s (exact: %+v)", name, v, kind, exact)
		}
	}
}
