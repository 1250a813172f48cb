package memmodel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// builder is litmus-listing sugar over the public Builder: writes
// serialize in registration order unless co overrides by observed
// VALUE, reads resolve by value, fences are full fences. The heavy
// lifting — key assignment, rf/co resolution, validation — is
// Builder's; this shim only keeps the table tests below terse.
type builder struct {
	t      *testing.T
	b      *Builder
	x      *Execution // the built execution, set by done
	writes map[memsys.Addr]map[uint64]relation.EventID
	coVals map[memsys.Addr][]uint64
}

func newBuilder(t *testing.T) *builder {
	return &builder{
		t:      t,
		b:      NewBuilder(),
		writes: make(map[memsys.Addr]map[uint64]relation.EventID),
		coVals: make(map[memsys.Addr][]uint64),
	}
}

// co overrides the coherence order for addr, naming writes by the
// values they store; by default writes serialize in registration order.
func (b *builder) co(addr memsys.Addr, vals ...uint64) {
	b.coVals[addr] = vals
}

func (b *builder) noteWrite(addr memsys.Addr, val uint64, id relation.EventID) {
	if b.writes[addr] == nil {
		b.writes[addr] = make(map[uint64]relation.EventID)
	}
	b.writes[addr][val] = id
}

func (b *builder) write(tid int, addr memsys.Addr, val uint64) relation.EventID {
	id := b.b.Write(tid, addr, val)
	b.noteWrite(addr, val, id)
	return id
}

func (b *builder) read(tid int, addr memsys.Addr, val uint64) relation.EventID {
	return b.b.Read(tid, addr, val)
}

func (b *builder) fence(tid int) relation.EventID {
	return b.b.Fence(tid, FenceFull)
}

// rmw adds an atomic read+write pair reading old and writing new.
func (b *builder) rmw(tid int, addr memsys.Addr, old, new uint64) {
	_, w := b.b.RMW(tid, addr, old, new)
	b.noteWrite(addr, new, w)
}

// done translates value-named co overrides into event IDs, builds, and
// returns the execution.
func (b *builder) done() *Execution {
	for addr, vals := range b.coVals {
		ids := make([]relation.EventID, 0, len(vals))
		for _, v := range vals {
			w, ok := b.writes[addr][v]
			if !ok {
				b.t.Fatalf("co override: no write of %d to %v", v, addr)
			}
			ids = append(ids, w)
		}
		b.b.CO(addr, ids...)
	}
	x, err := b.b.Build()
	if err != nil {
		b.t.Fatalf("Build: %v", err)
	}
	b.x = x
	return x
}

const (
	x memsys.Addr = 0x1000
	y memsys.Addr = 0x1040
)

func checkBoth(t *testing.T, build func(b *builder), wantSC, wantTSO bool) {
	t.Helper()
	for _, tc := range []struct {
		arch Arch
		want bool
	}{{SC{}, wantSC}, {TSO{}, wantTSO}} {
		b := newBuilder(t)
		build(b)
		res := NewChecker().Check(b.done(), tc.arch)
		if res.Valid != tc.want {
			t.Errorf("%s: Valid = %v (%s), want %v", tc.arch.Name(), res.Valid, res.Detail, tc.want)
		}
	}
}

// Figure 1: message passing. r1=1 ∧ r2=0 is forbidden under both SC and
// TSO (R→R and W→W are preserved).
func TestMPForbidden(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.write(1, y, 1)
		b.read(2, y, 1)
		b.read(2, x, 0)
	}, false, false)
}

func TestMPAllowedOutcomes(t *testing.T) {
	// All other MP outcomes are valid under SC and TSO.
	outcomes := [][2]uint64{{0, 0}, {0, 1}, {1, 1}}
	for _, o := range outcomes {
		checkBoth(t, func(b *builder) {
			b.write(1, x, 1)
			b.write(1, y, 1)
			b.read(2, y, o[0])
			b.read(2, x, o[1])
		}, true, true)
	}
}

// Store buffering (SB): r1=0 ∧ r2=0 is forbidden under SC but allowed
// under TSO — the canonical W→R relaxation.
func TestSBDistinguishesSCFromTSO(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.read(1, y, 0)
		b.write(2, y, 1)
		b.read(2, x, 0)
	}, false, true)
}

// SB with fences between the write and read: forbidden under TSO too.
func TestSBWithFencesForbidden(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.fence(1)
		b.read(1, y, 0)
		b.write(2, y, 1)
		b.fence(2)
		b.read(2, x, 0)
	}, false, false)
}

// Load buffering (LB): r1=1 ∧ r2=1 needs R→W reordering, forbidden under
// SC and TSO.
func TestLBForbidden(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.read(1, x, 1)
		b.write(1, y, 1)
		b.read(2, y, 1)
		b.write(2, x, 1)
	}, false, false)
}

// IRIW: both readers disagreeing on the order of independent writes is
// forbidden under SC and TSO (store atomicity).
func TestIRIWForbidden(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.write(2, y, 1)
		b.read(3, x, 1)
		b.read(3, y, 0)
		b.read(4, y, 1)
		b.read(4, x, 0)
	}, false, false)
}

// 2+2W: write-write cycle, forbidden under SC and TSO (co ∪ W→W ppo).
// Thread 1: Wx1; Wy1. Thread 2: Wy2; Wx2. Forbidden final state
// x=1 ∧ y=2, i.e. co(x): Wx2 < Wx1 and co(y): Wy1 < Wy2.
func Test22WForbidden(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.write(1, y, 1)
		b.write(2, y, 2)
		b.write(2, x, 2)
		b.co(x, 2, 1)
		b.co(y, 1, 2)
	}, false, false)
}

// Same-address coherence: reading an old value after reading a newer one
// violates SC-per-location regardless of model.
func TestCoherenceUniproc(t *testing.T) {
	for _, arch := range []Arch{SC{}, TSO{}} {
		b := newBuilder(t)
		b.write(1, x, 1)
		b.write(1, x, 2)
		b.read(2, x, 2)
		b.read(2, x, 1) // stale after fresh: uniproc violation
		res := NewChecker().Check(b.done(), arch)
		if res.Valid {
			t.Errorf("%s: stale-after-fresh accepted", arch.Name())
		}
		if res.Kind != ViolationUniproc {
			t.Errorf("%s: kind = %v, want uniproc", arch.Name(), res.Kind)
		}
	}
}

// A read from own earlier write (store forwarding) is valid under TSO
// even when the write has not reached memory relative to other threads.
func TestStoreForwardingValid(t *testing.T) {
	checkBoth(t, func(b *builder) {
		b.write(1, x, 1)
		b.read(1, x, 1)
		b.read(1, y, 0)
		b.write(2, y, 1)
		b.read(2, y, 1)
		b.read(2, x, 0)
	}, false, true) // SB shape extended with own-store reads: TSO-allowed.
}

func TestRMWAtomicityViolation(t *testing.T) {
	b := newBuilder(t)
	// Two RMWs both reading the initial value: the second cannot be
	// atomic because the first's write intervenes.
	b.rmw(1, x, 0, 10)
	b.rmw(2, x, 0, 20)
	res := NewChecker().Check(b.done(), TSO{})
	if res.Valid {
		t.Fatal("broken RMW atomicity accepted")
	}
	if res.Kind != ViolationAtomicity {
		t.Fatalf("kind = %v, want atomicity", res.Kind)
	}
}

func TestRMWAtomicityValidChain(t *testing.T) {
	b := newBuilder(t)
	b.rmw(1, x, 0, 10)
	b.rmw(2, x, 10, 20)
	res := NewChecker().Check(b.done(), TSO{})
	if !res.Valid {
		t.Fatalf("valid RMW chain rejected: %s", res.Detail)
	}
}

// RMWs act as fences: an SB shape with RMWs instead of plain writes is
// forbidden under TSO.
func TestRMWFencingForbidsSB(t *testing.T) {
	b := newBuilder(t)
	b.rmw(1, x, 0, 1)
	b.read(1, y, 0)
	b.rmw(2, y, 0, 1)
	b.read(2, x, 0)
	res := NewChecker().Check(b.done(), TSO{})
	if res.Valid {
		t.Fatal("SB with locked RMWs accepted under TSO")
	}
}

// TestStructuralValueMismatch builds its execution raw: Builder's own
// validation (correctly) refuses an rf edge whose value disagrees, and
// the point here is that Check catches the malformation too.
func TestStructuralValueMismatch(t *testing.T) {
	x1 := NewExecution()
	w := x1.AddEvent(Event{Key: Key{TID: 1}, Kind: KindWrite, Addr: x, Value: 1})
	if err := x1.AppendCO(w); err != nil {
		t.Fatalf("AppendCO: %v", err)
	}
	r := x1.AddEvent(Event{Key: Key{TID: 2}, Kind: KindRead, Addr: x, Value: 2}) // claims to read 2
	if err := x1.SetRF(r, w); err != nil {
		t.Fatalf("SetRF: %v", err)
	}
	res := NewChecker().Check(x1, TSO{})
	if res.Valid || res.Kind != ViolationStructural {
		t.Fatalf("value mismatch not caught: %+v", res)
	}
}

func TestResultErr(t *testing.T) {
	if (Result{Valid: true}).Err() != nil {
		t.Error("valid result returned error")
	}
	if (Result{Kind: ViolationGHB, Detail: "d"}).Err() == nil {
		t.Error("invalid result returned nil error")
	}
}

func TestSetRFValidation(t *testing.T) {
	x1 := NewExecution()
	w := x1.AddEvent(Event{Key: Key{TID: 1}, Kind: KindWrite, Addr: x, Value: 1})
	r := x1.AddEvent(Event{Key: Key{TID: 2}, Kind: KindRead, Addr: y, Value: 1})
	if err := x1.SetRF(r, w); err == nil {
		t.Error("address mismatch accepted")
	}
	if err := x1.SetRF(w, w); err == nil {
		t.Error("write as rf target accepted")
	}
	if err := x1.SetRF(r, r); err == nil {
		t.Error("read as rf source accepted")
	}
}

// TestAtomicityInterleavedWriteViolation: a plain write from a third
// thread serializing between an RMW's read source and its write half
// must break atomicity even when every other constraint holds.
func TestAtomicityInterleavedWriteViolation(t *testing.T) {
	b := newBuilder(t)
	b.write(1, x, 1)  // the RMW's read source
	b.rmw(2, x, 1, 3) // reads 1, writes 3
	b.write(3, x, 2)  // intruder
	b.co(x, 1, 2, 3)  // intruder serializes inside the RMW window
	res := NewChecker().Check(b.done(), TSO{})
	if res.Valid {
		t.Fatal("interleaved same-address write inside RMW window accepted")
	}
	if res.Kind != ViolationAtomicity {
		t.Fatalf("kind = %v (%s), want atomicity", res.Kind, res.Detail)
	}
}

// TestAtomicityInterleavedWriteOutsideWindow: the same three writes are
// fine when the intruder serializes after the RMW completes.
func TestAtomicityInterleavedWriteOutsideWindow(t *testing.T) {
	b := newBuilder(t)
	b.write(1, x, 1)
	b.rmw(2, x, 1, 3)
	b.write(3, x, 2)
	b.co(x, 1, 3, 2) // intruder last: window intact
	res := NewChecker().Check(b.done(), TSO{})
	if !res.Valid {
		t.Fatalf("post-RMW write rejected: %s (%s)", res.Kind, res.Detail)
	}
}

// TestDescribeCycleOutput pins the witness rendering: the relation
// label, every event on the cycle, the arrow separators, and the
// closing repetition of the first event.
func TestDescribeCycleOutput(t *testing.T) {
	b := newBuilder(t)
	b.write(1, x, 1)
	b.write(1, x, 2)
	b.read(2, x, 2)
	b.read(2, x, 1) // stale after fresh
	res := NewChecker().Check(b.done(), TSO{})
	if res.Valid || res.Kind != ViolationUniproc {
		t.Fatalf("expected uniproc violation, got %+v", res)
	}
	if len(res.Cycle) < 2 {
		t.Fatalf("witness too short: %v", res.Cycle)
	}
	if !strings.HasPrefix(res.Detail, "cycle in po-loc ∪ com: ") {
		t.Errorf("Detail missing relation label: %q", res.Detail)
	}
	if got, want := strings.Count(res.Detail, " -> "), len(res.Cycle); got != want {
		t.Errorf("Detail has %d arrows, want %d (cycle closes on its first event): %q",
			got, want, res.Detail)
	}
	for _, id := range res.Cycle {
		if !strings.Contains(res.Detail, b.x.Event(id).String()) {
			t.Errorf("Detail omits cycle event %v: %q", b.x.Event(id), res.Detail)
		}
	}
	first := b.x.Event(res.Cycle[0]).String()
	if !strings.HasSuffix(res.Detail, " -> "+first) {
		t.Errorf("Detail does not close on the first event %q: %q", first, res.Detail)
	}
}

// TestStructuralMissingRF: a read with no rf edge is a malformed
// execution and must be rejected as structural, not crash the search.
func TestStructuralMissingRF(t *testing.T) {
	x1 := NewExecution()
	w := x1.AddEvent(Event{Key: Key{TID: 1}, Kind: KindWrite, Addr: x, Value: 1})
	if err := x1.AppendCO(w); err != nil {
		t.Fatal(err)
	}
	x1.AddEvent(Event{Key: Key{TID: 2}, Kind: KindRead, Addr: x, Value: 1})
	res := NewChecker().Check(x1, TSO{})
	if res.Valid || res.Kind != ViolationStructural {
		t.Fatalf("read without rf not caught: %+v", res)
	}
	if !strings.Contains(res.Detail, "no rf edge") {
		t.Errorf("unhelpful structural detail: %q", res.Detail)
	}
}

// TestStructuralWriteMissingFromCO: a committed write absent from the
// coherence order (e.g. a dropped serialization) is structural.
func TestStructuralWriteMissingFromCO(t *testing.T) {
	x1 := NewExecution()
	x1.AddEvent(Event{Key: Key{TID: 1}, Kind: KindWrite, Addr: x, Value: 1})
	res := NewChecker().Check(x1, TSO{})
	if res.Valid || res.Kind != ViolationStructural {
		t.Fatalf("write outside co not caught: %+v", res)
	}
	if !strings.Contains(res.Detail, "not in coherence order") {
		t.Errorf("unhelpful structural detail: %q", res.Detail)
	}
}

// TestWarmExactCheckAllocatesNothing: a Checker with its own scratch
// decides a valid execution out of kept storage — the steady state of a
// recorder's RMO campaign, where every check is exact.
func TestWarmExactCheckAllocatesNothing(t *testing.T) {
	x := NewExecution()
	fillRandom(x, rand.New(rand.NewSource(5)), 4, 1000, 16)
	c := NewChecker(WithScratch(NewScratch()))
	if res := c.Check(x, RMO{}); !res.Valid {
		t.Fatalf("interleaved execution invalid under RMO: %s", res.Detail)
	}
	if n := testing.AllocsPerRun(20, func() { c.Check(x, RMO{}) }); n != 0 {
		t.Fatalf("a warm exact check allocates %.0f objects, want 0", n)
	}
}
