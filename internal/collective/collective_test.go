package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/relation"
)

const (
	ax memsys.Addr = 0x1000
	ay memsys.Addr = 0x1040
)

// op is one step of a scripted execution replay: a commit in global
// interleaving order.
type op struct {
	tid, instr int
	write      bool
	addr       memsys.Addr
	val        uint64
}

// replay builds an execution from ops in the given global order via the
// public Builder: the same op multiset in a different order yields the
// same per-thread slices, and rf/co are pinned from the caller's maps,
// which stay fixed across permutations. Keys are explicit (the ops
// carry their instruction slots) because the whole point is appending
// threads' events interleaved.
func replay(t *testing.T, ops []op, co map[memsys.Addr][]uint64, rf map[[2]int]uint64) *memmodel.Execution {
	t.Helper()
	b := memmodel.NewBuilder()
	writes := map[uint64]relation.EventID{}
	reads := map[[2]int]relation.EventID{}
	for _, o := range ops {
		key := memmodel.Key{TID: o.tid, Instr: o.instr}
		if o.write {
			writes[o.val] = b.WriteKeyed(key, o.addr, o.val, false)
		} else {
			reads[[2]int{o.tid, o.instr}] = b.ReadKeyed(key, o.addr, o.val, false)
		}
	}
	for addr, vals := range co {
		ids := make([]relation.EventID, 0, len(vals))
		for _, v := range vals {
			ids = append(ids, writes[v])
		}
		b.CO(addr, ids...)
	}
	for slot, r := range reads {
		if want := rf[slot]; want == 0 {
			b.SetRFInit(r)
		} else {
			b.SetRF(r, writes[want])
		}
	}
	x, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// mpOps is a message-passing execution: two writes on thread 1, two
// reads on thread 2 observing (readY, readX).
func mpOps(readY, readX uint64) ([]op, map[memsys.Addr][]uint64, map[[2]int]uint64) {
	ops := []op{
		{tid: 1, instr: 0, write: true, addr: ax, val: 101},
		{tid: 1, instr: 1, write: true, addr: ay, val: 102},
		{tid: 2, instr: 0, addr: ay, val: readY},
		{tid: 2, instr: 1, addr: ax, val: readX},
	}
	co := map[memsys.Addr][]uint64{ax: {101}, ay: {102}}
	rf := map[[2]int]uint64{{2, 0}: readY, {2, 1}: readX}
	return ops, co, rf
}

// permute reorders the global commit order while keeping each thread's
// subsequence intact (a different legal interleaving of the same run).
func permute(ops []op) []op {
	out := make([]op, 0, len(ops))
	byTID := map[int][]op{}
	var tids []int
	for _, o := range ops {
		if _, ok := byTID[o.tid]; !ok {
			tids = append(tids, o.tid)
		}
		byTID[o.tid] = append(byTID[o.tid], o)
	}
	// Round-robin pop instead of thread-at-a-time.
	for len(out) < len(ops) {
		for _, tid := range tids {
			if len(byTID[tid]) > 0 {
				out = append(out, byTID[tid][0])
				byTID[tid] = byTID[tid][1:]
			}
		}
	}
	return out
}

func TestSignatureInterleavingIndependent(t *testing.T) {
	ops, co, rf := mpOps(102, 101)
	a := Signature(replay(t, ops, co, rf))
	b := Signature(replay(t, permute(ops), co, rf))
	if a != b {
		t.Fatalf("same logical execution, different signatures: %v vs %v", a, b)
	}
}

func TestSignatureInitWriteCreationOrderIndependent(t *testing.T) {
	// Two threads each read a different location's initial value;
	// reversing their commit order reverses init-write creation order
	// (and so the init Keys), which the signature must canonicalize
	// away. Per-thread program order is untouched by the swap.
	ops := []op{
		{tid: 1, instr: 0, addr: ax, val: 0},
		{tid: 2, instr: 0, addr: ay, val: 0},
	}
	rev := []op{ops[1], ops[0]}
	rf := map[[2]int]uint64{{1, 0}: 0, {2, 0}: 0}
	a := Signature(replay(t, ops, nil, rf))
	b := Signature(replay(t, rev, nil, rf))
	if a != b {
		t.Fatalf("init-write creation order leaked into signature: %v vs %v", a, b)
	}
}

func TestSignatureDistinguishesRF(t *testing.T) {
	mk := func(readY, readX uint64) Sig {
		ops, co, rf := mpOps(readY, readX)
		return Signature(replay(t, ops, co, rf))
	}
	sigs := map[Sig][2]uint64{}
	for _, o := range [][2]uint64{{102, 101}, {102, 0}, {0, 101}, {0, 0}} {
		s := mk(o[0], o[1])
		if prev, dup := sigs[s]; dup {
			t.Fatalf("outcomes %v and %v share a signature", prev, o)
		}
		sigs[s] = o
	}
}

func TestSignatureDistinguishesCO(t *testing.T) {
	ops := []op{
		{tid: 1, instr: 0, write: true, addr: ax, val: 1},
		{tid: 2, instr: 0, write: true, addr: ax, val: 2},
	}
	a := Signature(replay(t, ops, map[memsys.Addr][]uint64{ax: {1, 2}}, nil))
	b := Signature(replay(t, ops, map[memsys.Addr][]uint64{ax: {2, 1}}, nil))
	if a == b {
		t.Fatal("coherence order not captured by signature")
	}
}

// TestSignatureDistinguishesFenceKinds: two otherwise identical
// executions whose fence events differ only in flavour must not
// collide — a store-store fence and a full fence mean different things
// to every weak model.
func TestSignatureDistinguishesFenceKinds(t *testing.T) {
	build := func(kind memmodel.FenceKind) Sig {
		ops, co, rf := mpOps(102, 101)
		x := replay(t, ops, co, rf)
		x.AddEvent(memmodel.Event{
			Key:   memmodel.Key{TID: 1, Instr: 2},
			Kind:  memmodel.KindFence,
			Fence: kind,
		})
		return Signature(x)
	}
	if build(memmodel.FenceFull) == build(memmodel.FenceSS) {
		t.Fatal("fence flavour not part of the signature")
	}
	if build(memmodel.FenceSS) != build(memmodel.FenceSS) {
		t.Fatal("equal executions hash differently")
	}
}

// exactVia submits x to m the way every caller does, through Check,
// with a fresh exact checker deciding x as the decision procedure.
func exactVia(m *Memo, sig Sig, x *memmodel.Execution, arch memmodel.Arch) (memmodel.Result, bool) {
	res, hit, _ := m.Check(sig, arch, exactCheck(x, arch))
	return res, hit
}

// exactCheck is the CheckFunc deciding x under arch with a fresh exact
// checker.
func exactCheck(x *memmodel.Execution, arch memmodel.Arch) CheckFunc {
	return func() (memmodel.Result, error) { return memmodel.NewChecker().Check(x, arch), nil }
}

func TestMemoChecksOncePerSignature(t *testing.T) {
	m := NewMemo()
	ops, co, rf := mpOps(102, 101)
	for i := 0; i < 5; i++ {
		x := replay(t, ops, co, rf)
		res, hit := exactVia(m, Signature(x), x, memmodel.TSO{})
		if !res.Valid {
			t.Fatalf("valid MP outcome rejected: %s", res.Detail)
		}
		if hit != (i > 0) {
			t.Fatalf("submission %d: hit = %v", i, hit)
		}
	}
	d := m.Stats()
	if d.Checks != 5 || d.Unique != 1 || d.Hits != 4 {
		t.Fatalf("stats = %+v, want 5/1/4", d)
	}
}

func TestMemoVerdictMatchesDirectCheck(t *testing.T) {
	m := NewMemo()
	for _, o := range [][2]uint64{{102, 101}, {102, 0}, {0, 0}} {
		ops, co, rf := mpOps(o[0], o[1])
		x := replay(t, ops, co, rf)
		want := memmodel.NewChecker().Check(x, memmodel.TSO{})
		// Submit a different interleaving of the same execution: the
		// memoized verdict must match the direct check of either.
		x2 := replay(t, permute(ops), co, rf)
		got, _ := exactVia(m, Signature(x2), x2, memmodel.TSO{})
		if got.Valid != want.Valid || got.Kind != want.Kind {
			t.Fatalf("outcome %v: memo (%v,%v) != direct (%v,%v)",
				o, got.Valid, got.Kind, want.Valid, want.Kind)
		}
	}
}

// TestMemoKeysPerArch: a memo shared between checkers of different
// memory models must never answer an SC query with a TSO verdict. The
// SB outcome (both reads stale) is the canonical discriminator:
// TSO-valid, SC-invalid.
func TestMemoKeysPerArch(t *testing.T) {
	m := NewMemo()
	sb := func() *memmodel.Execution {
		ops := []op{
			{tid: 1, instr: 0, write: true, addr: ax, val: 1},
			{tid: 1, instr: 1, addr: ay, val: 0},
			{tid: 2, instr: 0, write: true, addr: ay, val: 2},
			{tid: 2, instr: 1, addr: ax, val: 0},
		}
		co := map[memsys.Addr][]uint64{ax: {1}, ay: {2}}
		rf := map[[2]int]uint64{{1, 1}: 0, {2, 1}: 0}
		return replay(t, ops, co, rf)
	}
	x := sb()
	sig := Signature(x)
	if res, _ := exactVia(m, sig, x, memmodel.TSO{}); !res.Valid {
		t.Fatalf("SB rejected under TSO: %s", res.Detail)
	}
	res, hit := exactVia(m, sig, sb(), memmodel.SC{})
	if hit {
		t.Fatal("SC query answered from the TSO entry")
	}
	if res.Valid {
		t.Fatal("SB accepted under SC via cross-arch memo pollution")
	}
	if d := m.Stats(); d.Unique != 2 {
		t.Fatalf("unique = %d, want one entry per arch", d.Unique)
	}
}

// TestMemoHitRederivesInvalidWitness: a hit on a known-invalid
// signature must report the witness of the *submitted* execution, not
// the representative's — otherwise Result details would depend on
// which fleet worker checked the signature first.
func TestMemoHitRederivesInvalidWitness(t *testing.T) {
	m := NewMemo()
	ops, co, rf := mpOps(102, 0) // forbidden MP outcome
	x1 := replay(t, ops, co, rf)
	if res, hit := exactVia(m, Signature(x1), x1, memmodel.TSO{}); res.Valid || hit {
		t.Fatalf("representative: valid=%v hit=%v", res.Valid, hit)
	}
	x2 := replay(t, permute(ops), co, rf) // same signature, new EventIDs
	got, hit := exactVia(m, Signature(x2), x2, memmodel.TSO{})
	if !hit || got.Valid {
		t.Fatalf("repeat: valid=%v hit=%v", got.Valid, hit)
	}
	want := memmodel.NewChecker().Check(x2, memmodel.TSO{})
	if got.Detail != want.Detail {
		t.Errorf("hit returned foreign witness:\n got %q\nwant %q", got.Detail, want.Detail)
	}
}

// TestSignatureDistinguishesRMWPairing: atomicity pairs events by
// (Instr, consecutive Subs), so an RMW pair and a kind/addr/value-
// identical unpaired read+write must not share a signature.
func TestSignatureDistinguishesRMWPairing(t *testing.T) {
	build := func(paired bool) *memmodel.Execution {
		x := memmodel.NewExecution()
		w1 := x.AddEvent(memmodel.Event{
			Key: memmodel.Key{TID: 1, Instr: 0}, Kind: memmodel.KindWrite, Addr: ax, Value: 1,
		})
		rInstr, rSub := 5, 0
		if !paired {
			rInstr, rSub = 4, 0 // read half demoted to its own instruction
		}
		r := x.AddEvent(memmodel.Event{
			Key: memmodel.Key{TID: 2, Instr: rInstr, Sub: rSub}, Kind: memmodel.KindRead,
			Addr: ax, Value: 1, Atomic: true,
		})
		w2 := x.AddEvent(memmodel.Event{
			Key: memmodel.Key{TID: 2, Instr: 5, Sub: 1}, Kind: memmodel.KindWrite,
			Addr: ax, Value: 3, Atomic: true,
		})
		intruder := x.AddEvent(memmodel.Event{
			Key: memmodel.Key{TID: 3, Instr: 0}, Kind: memmodel.KindWrite, Addr: ax, Value: 2,
		})
		for _, w := range []relation.EventID{w1, intruder, w2} {
			if err := x.AppendCO(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.SetRF(r, w1); err != nil {
			t.Fatal(err)
		}
		return x
	}
	pairedX, unpairedX := build(true), build(false)
	if Signature(pairedX) == Signature(unpairedX) {
		t.Fatal("RMW pairing not captured by signature")
	}
	// And the verdicts genuinely differ, which is why collision would
	// be unsound: the paired version breaks atomicity, the unpaired
	// one does not.
	paired := memmodel.NewChecker().Check(pairedX, memmodel.TSO{})
	unpaired := memmodel.NewChecker().Check(unpairedX, memmodel.TSO{})
	if paired.Kind != memmodel.ViolationAtomicity || unpaired.Kind == memmodel.ViolationAtomicity {
		t.Fatalf("unexpected verdicts: paired=%v unpaired=%v", paired.Kind, unpaired.Kind)
	}
}

func TestMemoConcurrentSubmitters(t *testing.T) {
	m := NewMemo()
	// Two executions, one valid (both reads fresh) and one forbidden
	// (fresh y, stale x), submitted repeatedly from many goroutines.
	// Executions are built up front and only read concurrently.
	type tc struct {
		x     *memmodel.Execution
		sig   Sig
		valid bool
	}
	var cases []tc
	for _, o := range [][2]uint64{{102, 101}, {102, 0}} {
		ops, co, rf := mpOps(o[0], o[1])
		x := replay(t, ops, co, rf)
		cases = append(cases, tc{x: x, sig: Signature(x), valid: o[1] == 101})
	}
	const goroutines = 16
	var wg sync.WaitGroup
	var flipped sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := cases[i%2]
				res, _ := exactVia(m, c.sig, c.x, memmodel.TSO{})
				if res.Valid != c.valid {
					flipped.Store(i, res.Kind)
				}
			}
		}()
	}
	wg.Wait()
	flipped.Range(func(k, v any) bool {
		t.Errorf("submission %v: verdict flipped under concurrency (%v)", k, v)
		return true
	})
	d := m.Stats()
	if d.Unique != 2 {
		t.Fatalf("unique = %d, want 2", d.Unique)
	}
	if d.Checks != goroutines*20 || d.Checks-d.Unique != d.Hits {
		t.Fatalf("inconsistent counters: %+v", d)
	}
}

// TestMemoConcurrentChecksAndFailures: goroutines submitting at once,
// on keys they all share and on keys of their own, decide each key once:
// a valid key's check runs once in all, an invalid key's once per
// submission (a hit re-derives its witness), and a failing key's once
// per submission, as a failed check leaves no verdict for the next. The
// memo reads nothing but the signature and the model, so the keys are
// signatures alone, their checks counters.
func TestMemoConcurrentChecksAndFailures(t *testing.T) {
	type outcome int
	const (
		valid outcome = iota
		invalid
		failing
	)
	errBuild := errors.New("the execution does not build")
	type key struct {
		sig         Sig
		arch        memmodel.Arch
		outcome     outcome
		calls, subs atomic.Int64
	}
	check := func(k *key) CheckFunc {
		return func() (memmodel.Result, error) {
			k.calls.Add(1)
			switch k.outcome {
			case valid:
				return memmodel.Result{Valid: true}, nil
			case invalid:
				return memmodel.Result{Kind: memmodel.ViolationGHB}, nil
			}
			return memmodel.Result{}, errBuild
		}
	}
	shared := []*key{
		{sig: Sig{Hi: 1}, arch: memmodel.TSO{}, outcome: valid},
		{sig: Sig{Hi: 1}, arch: memmodel.PSO{}, outcome: valid},
		{sig: Sig{Hi: 2}, arch: memmodel.TSO{}, outcome: invalid},
		{sig: Sig{Hi: 3}, arch: memmodel.TSO{}, outcome: failing},
	}
	const goroutines, rounds = 8, 60
	own := make([]*key, goroutines)
	for g := range own {
		own[g] = &key{sig: Sig{Lo: uint64(g)}, arch: memmodel.TSO{}, outcome: outcome(g % 3)}
	}

	m := NewMemo()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := own[g]
				if i%2 == 0 {
					k = shared[(g+i/2)%len(shared)]
				}
				k.subs.Add(1)
				res, _, err := m.Check(k.sig, k.arch, check(k))
				switch {
				case k.outcome == failing && !errors.Is(err, errBuild):
					t.Errorf("(%s, %s): error %v, want %v", k.sig, k.arch.Name(), err, errBuild)
				case k.outcome != failing && (err != nil || res.Valid != (k.outcome == valid)):
					t.Errorf("(%s, %s): %+v, %v; want valid = %v", k.sig, k.arch.Name(), res, err, k.outcome == valid)
				}
			}
		}()
	}
	wg.Wait()

	var decided, succeeded int64
	for _, k := range append(shared, own...) {
		want := k.subs.Load()
		if k.outcome == valid {
			want = 1
		}
		if got := k.calls.Load(); got != want {
			t.Errorf("(%s, %s, outcome %d): checked %d times over %d submissions, want %d", k.sig, k.arch.Name(), k.outcome, got, k.subs.Load(), want)
		}
		if k.outcome != failing {
			decided++
			succeeded += k.subs.Load()
		}
	}
	d := m.Stats()
	if d.Checks != uint64(succeeded) || d.Unique != uint64(decided) || d.Checks-d.Unique != d.Hits || d.Durable != 0 {
		t.Fatalf("counters %+v: want %d checks, %d unique, checks - unique == hits", d, succeeded, decided)
	}
	if m.Len() != int(decided) {
		t.Fatalf("Len = %d, want %d: a failed key holds no verdict", m.Len(), decided)
	}
}

// TestInlinedFNVMatchesHashFNV: the signature's inlined hash is
// hash/fnv's 128-bit FNV-1a over the same little-endian words — the
// stream every stored verdict and golden signature was keyed under —
// after every single word: random words of every length, the words at
// which the count of significant bytes changes in every adjacent order,
// and runs of zero words, which the inlined hash takes in one
// multiplication each.
func TestInlinedFNVMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var words []uint64
	for i := 0; i < 1000; i++ {
		words = append(words, rng.Uint64()>>uint(rng.Intn(64)))
	}
	edges := []uint64{0, 1, 0xff, 0x100, 1 << 56, ^uint64(0)}
	for _, a := range edges {
		for _, b := range edges {
			words = append(words, a, b)
		}
	}
	for shift := 0; shift < 64; shift++ {
		words = append(words, 1<<shift, 1<<shift-1)
	}
	for run := 1; run <= 20; run++ {
		words = append(words, make([]uint64, run)...)
		words = append(words, rng.Uint64())
	}

	ref := fnv.New128a()
	h := fnv128a{offset128Hi, offset128Lo}
	for i, v := range words {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		h.u64(v)
		sum := ref.Sum(nil)
		if hi, lo := binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:]); h.hi != hi || h.lo != lo {
			t.Fatalf("after %d words (last %#x): inlined %s, hash/fnv %x", i+1, v, Sig{h.hi, h.lo}, sum)
		}
	}
}

// TestSigString: 32 lower-case hex digits, Hi then Lo, zero-padded.
func TestSigString(t *testing.T) {
	for _, s := range []Sig{{}, {Hi: 1, Lo: 0xabcdef}, {Hi: ^uint64(0), Lo: 1 << 63}, {Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}} {
		if got, want := s.String(), fmt.Sprintf("%016x%016x", s.Hi, s.Lo); got != want {
			t.Errorf("Sig%+v prints %q, want %q", [2]uint64{s.Hi, s.Lo}, got, want)
		}
	}
}
