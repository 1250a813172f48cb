package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// covCounter tallies records by transition name, decoding IDs through
// the protocol's vocabulary. An ID outside it lands in unknown.
type covCounter struct {
	names   []string
	seen    map[string]uint64
	unknown uint64
}

func newCovCounter(proto string) *covCounter {
	return &covCounter{names: protoTransitions(proto), seen: make(map[string]uint64)}
}

func (c *covCounter) RecordID(id TransitionID) {
	if uint64(id) >= uint64(len(c.names)) {
		c.unknown++
		return
	}
	c.seen[c.names[id]]++
}

// testSys assembles a small coherent system for protocol-level tests:
// 4 cores, 4 L2 tiles, tiny caches so evictions are frequent.
type testSys struct {
	t      *testing.T
	sim    *sim.Sim
	net    *interconnect.Network
	mem    *memsys.Memory
	ctrl   *MemCtrl
	l1s    []CacheL1
	mesi   []*MESIL1
	tso    []*TSOCCL1
	mesiL2 []*MESIL2
	tsoL2  []*TSOCCL2
	cov    *covCounter
	errs   *CollectErrors
}

// CollectErrors accumulates protocol errors.
type CollectErrors struct {
	Errors []error
}

// ProtocolError implements ErrorSink.
func (c *CollectErrors) ProtocolError(err error) { c.Errors = append(c.Errors, err) }

// issue hands one CPU operation to core's L1; done receives the
// completion value (loaded value, atomic's old value, 0 otherwise).
func (ts *testSys) issue(core int, kind ReqKind, addr memsys.Addr, val uint64, done func(uint64)) {
	ts.l1s[core].Issue(&Request{
		Kind: kind, Addr: addr, Val: val,
		Done: func(_ *Request, v uint64, _ bool) { done(v) },
	})
}

const (
	tCores = 4
	tTiles = 4
)

func newSys(t *testing.T, proto string, seed int64, bug bugs.Set) *testSys {
	return newSysSink(t, proto, seed, bug, nil)
}

// newSysSink is newSys with an overridable coverage sink (nil keeps
// the default covCounter); the tracker tests plug in a real
// coverage.Tracker here.
func newSysSink(t *testing.T, proto string, seed int64, bug bugs.Set, sink CoverageSink) *testSys {
	t.Helper()
	s := sim.New(seed)
	net := interconnect.New(s)
	mem := memsys.NewMemory()
	msgs := NewMsgPool()
	ts := &testSys{
		t: t, sim: s, net: net, mem: mem,
		cov: newCovCounter(proto), errs: &CollectErrors{},
	}
	if sink == nil {
		sink = ts.cov
	}
	var err error
	if ts.ctrl, err = NewMemCtrl(s, net, mem, msgs); err != nil {
		t.Fatalf("NewMemCtrl: %v", err)
	}
	cfg := func(id, size int) Config {
		return Config{ID: id, Cores: tCores, Tiles: tTiles, SizeBytes: size, Ways: 2, Bugs: bug, Msgs: msgs}
	}
	for i := 0; i < tCores; i++ {
		switch proto {
		case "MESI":
			l1, err := NewMESIL1(s, net, cfg(i, 1024), 0, i)
			if err != nil {
				t.Fatalf("NewMESIL1: %v", err)
			}
			ts.mesi = append(ts.mesi, l1)
			ts.l1s = append(ts.l1s, l1)
		case "TSO-CC":
			l1, err := NewTSOCCL1(s, net, cfg(i, 1024), 0, i)
			if err != nil {
				t.Fatalf("NewTSOCCL1: %v", err)
			}
			ts.tso = append(ts.tso, l1)
			ts.l1s = append(ts.l1s, l1)
		}
	}
	for j := 0; j < tTiles; j++ {
		switch proto {
		case "MESI":
			l2, err := NewMESIL2(s, net, cfg(j, 2048), 1, j)
			if err != nil {
				t.Fatalf("NewMESIL2: %v", err)
			}
			ts.mesiL2 = append(ts.mesiL2, l2)
		case "TSO-CC":
			l2, err := NewTSOCCL2(s, net, cfg(j, 2048), 1, j)
			if err != nil {
				t.Fatalf("NewTSOCCL2: %v", err)
			}
			ts.tsoL2 = append(ts.tsoL2, l2)
		}
	}
	ts.resetAll(sink)
	return ts
}

// resetAll resets every controller, reporting to cov and ts.errs.
func (ts *testSys) resetAll(cov CoverageSink) {
	for _, c := range ts.mesi {
		c.Reset(cov, ts.errs)
	}
	for _, c := range ts.tso {
		c.Reset(cov, ts.errs)
	}
	for _, c := range ts.mesiL2 {
		c.Reset(cov, ts.errs)
	}
	for _, c := range ts.tsoL2 {
		c.Reset(cov, ts.errs)
	}
}

// resetAllCaches drops every cache level, as the host's reset_test_mem
// does between tests.
func (ts *testSys) resetAllCaches() {
	for _, l1 := range ts.l1s {
		l1.ResetCaches()
	}
	for _, l2 := range ts.mesiL2 {
		l2.ResetCaches()
	}
	for _, l2 := range ts.tsoL2 {
		l2.ResetCaches()
	}
}

const opDeadline = 2_000_000

// load performs a blocking load on core and returns the value.
func (ts *testSys) load(core int, addr memsys.Addr) uint64 {
	ts.t.Helper()
	var val uint64
	done := false
	ts.issue(core, ReqLoad, addr, 0, func(v uint64) { val, done = v, true })
	if err := ts.sim.RunUntil(func() bool { return done }, opDeadline); err != nil {
		ts.t.Fatalf("load(%d, %v): %v (protocol errors: %v)", core, addr, err, ts.errs.Errors)
	}
	return val
}

// store performs a blocking store on core.
func (ts *testSys) store(core int, addr memsys.Addr, v uint64) {
	ts.t.Helper()
	done := false
	ts.issue(core, ReqStore, addr, v, func(uint64) { done = true })
	if err := ts.sim.RunUntil(func() bool { return done }, opDeadline); err != nil {
		ts.t.Fatalf("store(%d, %v): %v (protocol errors: %v)", core, addr, err, ts.errs.Errors)
	}
}

// atomic performs a blocking RMW on core and returns the old value.
func (ts *testSys) atomic(core int, addr memsys.Addr, newVal uint64) uint64 {
	ts.t.Helper()
	var old uint64
	done := false
	ts.issue(core, ReqAtomic, addr, newVal, func(o uint64) { old, done = o, true })
	if err := ts.sim.RunUntil(func() bool { return done }, opDeadline); err != nil {
		ts.t.Fatalf("atomic(%d, %v): %v (errors: %v)", core, addr, err, ts.errs.Errors)
	}
	return old
}

// flush performs a blocking clflush on core.
func (ts *testSys) flush(core int, addr memsys.Addr) {
	ts.t.Helper()
	done := false
	ts.issue(core, ReqFlush, addr, 0, func(uint64) { done = true })
	if err := ts.sim.RunUntil(func() bool { return done }, opDeadline); err != nil {
		ts.t.Fatalf("flush(%d, %v): %v (errors: %v)", core, addr, err, ts.errs.Errors)
	}
}

// quiesce drains all in-flight traffic.
func (ts *testSys) quiesce() {
	ts.sim.Run()
}

// checkNoErrors fails the test on any accumulated protocol error.
func (ts *testSys) checkNoErrors() {
	ts.t.Helper()
	for _, err := range ts.errs.Errors {
		ts.t.Errorf("protocol error: %v", err)
	}
}

var protocols = []string{"MESI", "TSO-CC"}

func TestBasicReadWrite(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 1, bugs.Set{})
			a := memsys.Addr(0x10000)
			if got := ts.load(0, a); got != 0 {
				t.Fatalf("initial load = %d, want 0", got)
			}
			ts.store(0, a, 42)
			if got := ts.load(0, a); got != 42 {
				t.Fatalf("own read = %d, want 42", got)
			}
			ts.checkNoErrors()
		})
	}
}

func TestCrossCoreVisibility(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 2, bugs.Set{})
			a := memsys.Addr(0x10000)
			ts.store(0, a, 7)
			ts.quiesce()
			// Under TSO-CC the first remote read fetches (no cached
			// copy), so it must observe the write; under MESI any
			// read does.
			if got := ts.load(1, a); got != 7 {
				t.Fatalf("remote read = %d, want 7", got)
			}
			ts.checkNoErrors()
		})
	}
}

func TestWriteToSharedLine(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 3, bugs.Set{})
			a := memsys.Addr(0x10000)
			// All cores read (shared everywhere), then one writes,
			// then everyone re-reads until fresh.
			ts.store(0, a, 1)
			for c := 0; c < tCores; c++ {
				ts.load(c, a)
			}
			ts.store(1, a, 2)
			ts.quiesce()
			for c := 0; c < tCores; c++ {
				// TSO-CC may serve a bounded number of stale
				// reads; MaxReads re-reads force a fetch.
				var got uint64
				for i := 0; i < 6; i++ {
					got = ts.load(c, a)
				}
				if got != 2 {
					t.Fatalf("%s: core %d final read = %d, want 2", proto, c, got)
				}
			}
			ts.checkNoErrors()
		})
	}
}

func TestAtomicChain(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 4, bugs.Set{})
			a := memsys.Addr(0x20000)
			// Chained atomics across cores must read each other's
			// values exactly.
			prev := uint64(0)
			for i := 0; i < 12; i++ {
				core := i % tCores
				old := ts.atomic(core, a, uint64(i+1))
				if old != prev {
					t.Fatalf("atomic %d on core %d read %d, want %d", i, core, old, prev)
				}
				prev = uint64(i + 1)
			}
			ts.checkNoErrors()
		})
	}
}

func TestFlushWritesBack(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 5, bugs.Set{})
			a := memsys.Addr(0x30000)
			ts.store(0, a, 99)
			ts.flush(0, a)
			ts.quiesce()
			// After flush + quiesce the data must be recoverable by
			// any core (L2 or memory holds it).
			if got := ts.load(2, a); got != 99 {
				t.Fatalf("read after flush = %d, want 99", got)
			}
			ts.checkNoErrors()
		})
	}
}

// TestSequentialOracle drives globally-serialized random traffic; every
// read must return exactly the current value (writes are fully performed
// before the next op starts). For TSO-CC, reads are repeated MaxReads+1
// times to defeat bounded staleness.
func TestSequentialOracle(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 6, bugs.Set{})
			rng := rand.New(rand.NewSource(6))
			layout := memsys.MustLayout(2048, 16)
			pool := layout.Pool()
			oracle := make(map[memsys.Addr]uint64)
			for i := 0; i < 400; i++ {
				core := rng.Intn(tCores)
				addr := pool[rng.Intn(len(pool))]
				switch rng.Intn(4) {
				case 0, 1:
					v := uint64(i + 1)
					ts.store(core, addr, v)
					oracle[addr] = v
					ts.quiesce()
				case 2:
					var got uint64
					reads := 1
					if proto == "TSO-CC" {
						reads = 6
					}
					for r := 0; r < reads; r++ {
						got = ts.load(core, addr)
					}
					if got != oracle[addr] {
						t.Fatalf("op %d: read(%v) = %d, want %d", i, addr, got, oracle[addr])
					}
				case 3:
					ts.flush(core, addr)
					ts.quiesce()
				}
			}
			ts.checkNoErrors()
		})
	}
}

// TestConcurrentStress fires racing traffic from all cores and checks
// that the system quiesces without protocol errors and that every read
// observed either zero or some written value.
func TestConcurrentStress(t *testing.T) {
	for _, proto := range protocols {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", proto, seed), func(t *testing.T) {
				ts := newSys(t, proto, seed, bugs.Set{})
				rng := rand.New(rand.NewSource(seed))
				layout := memsys.MustLayout(1024, 16)
				pool := layout.Pool()
				written := make(map[memsys.Addr]map[uint64]bool)
				type obs struct {
					addr memsys.Addr
					val  uint64
				}
				var reads []obs
				outstanding := 0
				for i := 0; i < 600; i++ {
					core := rng.Intn(tCores)
					addr := pool[rng.Intn(len(pool))]
					outstanding++
					switch rng.Intn(5) {
					case 0, 1:
						v := uint64(i)<<8 | uint64(core+1)
						if written[addr] == nil {
							written[addr] = make(map[uint64]bool)
						}
						written[addr][v] = true
						ts.issue(core, ReqStore, addr, v, func(uint64) { outstanding-- })
					case 2, 3:
						a := addr
						ts.issue(core, ReqLoad, addr, 0, func(v uint64) {
							reads = append(reads, obs{a, v})
							outstanding--
						})
					case 4:
						ts.issue(core, ReqFlush, addr, 0, func(uint64) { outstanding-- })
					}
					// Let a little traffic overlap.
					if rng.Intn(3) == 0 {
						if err := ts.sim.RunUntil(func() bool { return outstanding < 8 }, opDeadline); err != nil {
							t.Fatalf("op %d: %v (errors: %v)", i, err, ts.errs.Errors)
						}
					}
				}
				if err := ts.sim.RunUntil(func() bool { return outstanding == 0 }, 10*opDeadline); err != nil {
					t.Fatalf("drain: %v (errors: %v)", err, ts.errs.Errors)
				}
				ts.quiesce()
				ts.checkNoErrors()
				for _, o := range reads {
					if o.val == 0 {
						continue
					}
					if !written[o.addr][o.val] {
						t.Fatalf("read of %v returned %d, never written there", o.addr, o.val)
					}
				}
			})
		}
	}
}

// TestMESISWMRInvariant: with bugs off, at quiescence at most one L1 may
// hold a line in E/M, and then no other L1 may hold it at all.
func TestMESISWMRInvariant(t *testing.T) {
	ts := newSys(t, "MESI", 7, bugs.Set{})
	rng := rand.New(rand.NewSource(7))
	layout := memsys.MustLayout(1024, 16)
	pool := layout.Pool()
	for i := 0; i < 300; i++ {
		core := rng.Intn(tCores)
		addr := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			ts.store(core, addr, uint64(i+1))
		} else {
			ts.load(core, addr)
		}
		ts.quiesce()
		holders := make(map[memsys.Addr][]l1State)
		for _, l1 := range ts.mesi {
			l1.array.Range(func(a memsys.Addr, line *mesiL1Line) bool {
				holders[a] = append(holders[a], line.state)
				return true
			})
		}
		for a, states := range holders {
			exclusive := 0
			for _, st := range states {
				if st == l1E || st == l1M {
					exclusive++
				}
			}
			if exclusive > 1 || (exclusive == 1 && len(states) > 1) {
				t.Fatalf("op %d: SWMR violated at %v: states %v", i, a, states)
			}
		}
	}
	ts.checkNoErrors()
}

// TestTSOCCViolatesSWMR: TSO-CC must be able to hold an exclusive copy
// while stale shared copies survive elsewhere — the paper's motivation
// for why SWMR-based verification cannot cover it.
func TestTSOCCViolatesSWMR(t *testing.T) {
	ts := newSys(t, "TSO-CC", 8, bugs.Set{})
	a := memsys.Addr(0x40000)
	ts.store(0, a, 1)
	ts.quiesce()
	ts.load(1, a) // core 1 caches a shared copy
	ts.quiesce()
	ts.store(0, a, 2) // core 0 re-acquires exclusive; core 1 keeps its copy
	ts.quiesce()
	var exclusives, shared int
	for _, l1 := range ts.tso {
		l1.array.Range(func(addr memsys.Addr, line *tsoL1Line) bool {
			if addr != a.LineAddr() {
				return true
			}
			switch line.state {
			case tsoEX:
				exclusives++
			case tsoSH:
				shared++
			}
			return true
		})
	}
	if exclusives != 1 || shared == 0 {
		t.Fatalf("expected SWMR violation (Ex=1, Sh>0), got Ex=%d Sh=%d", exclusives, shared)
	}
	ts.checkNoErrors()
}

// TestTSOCCEventualVisibility: bounded reads force refetch, so a reader
// polling a flag sees a new value within MaxReads+1 reads.
func TestTSOCCEventualVisibility(t *testing.T) {
	ts := newSys(t, "TSO-CC", 9, bugs.Set{})
	a := memsys.Addr(0x50000)
	ts.store(0, a, 1)
	ts.load(1, a)
	ts.store(0, a, 2)
	ts.quiesce()
	for i := 0; ; i++ {
		if got := ts.load(1, a); got == 2 {
			break
		}
		if i > maxReads+1 {
			t.Fatalf("value still stale after %d reads", i)
		}
	}
	ts.checkNoErrors()
}

// TestTransitionTablesEnumerate: each vocabulary is a plausible size,
// names every transition once with all three parts, and is numbered in
// sorted (controller, state, event) order.
func TestTransitionTablesEnumerate(t *testing.T) {
	for proto, min := range map[string]int{"MESI": 40, "TSO-CC": 25} {
		names := protoTransitions(proto)
		if len(names) < min {
			t.Errorf("%s table suspiciously small: %d", proto, len(names))
		}
		var prev []string
		for _, name := range names {
			parts := strings.Split(name, ":")
			if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
				t.Errorf("incomplete transition %q", name)
				continue
			}
			if prev != nil && slices.Compare(prev, parts) >= 0 {
				t.Errorf("%s: %q numbered after %q", proto, name, strings.Join(prev, ":"))
			}
			prev = parts
		}
	}
}

// TestL1EventsStartWithCPUOps: an L1 dispatches a CPU operation with its
// ReqKind as the event.
func TestL1EventsStartWithCPUOps(t *testing.T) {
	for op, want := range []string{ReqLoad: "Load", ReqStore: "Store", ReqAtomic: "Atomic", ReqFlush: "Flush"} {
		if l1EventNames[op] != want || tsoL1EventNames[op] != want {
			t.Errorf("ReqKind %d dispatches as %s (MESI) / %s (TSO-CC), want %s",
				op, l1EventNames[op], tsoL1EventNames[op], want)
		}
	}
}

// TestCoverageSubsetOfTable: every transition recorded during stress runs
// must be an enumerated table entry (numerator ⊆ denominator).
func TestCoverageSubsetOfTable(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 10, bugs.Set{})
			ts.stress(10)
			if len(ts.cov.seen) < 10 {
				t.Errorf("too few distinct transitions recorded: %d", len(ts.cov.seen))
			}
			if ts.cov.unknown != 0 {
				t.Errorf("%d records outside the declared vocabulary", ts.cov.unknown)
			}
		})
	}
}

// protoTransitions returns a protocol's declared vocabulary.
func protoTransitions(proto string) []string {
	if proto == "MESI" {
		return MESITransitions()
	}
	return TSOCCTransitions()
}

// stress drives the seeded store/load/flush mix the sink tests share.
func (ts *testSys) stress(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pool := memsys.MustLayout(1024, 16).Pool()
	for i := 0; i < 400; i++ {
		core := rng.Intn(tCores)
		addr := pool[rng.Intn(len(pool))]
		switch rng.Intn(4) {
		case 0, 1:
			ts.store(core, addr, uint64(i+1))
		case 2:
			ts.load(core, addr)
		case 3:
			ts.flush(core, addr)
		}
	}
	ts.quiesce()
	ts.checkNoErrors()
}

// TestCovRecorderRecordAllocatesNothing gates the live per-transition
// path: a load hit through dispatch, which looks the cell up, records
// its ID into a real tracker and runs the handler.
func TestCovRecorderRecordAllocatesNothing(t *testing.T) {
	tracker := coverage.NewTracker(len(MESITransitions()), coverage.DefaultParams())
	c := newSysSink(t, "MESI", 1, bugs.Set{}, tracker).mesi[0]
	addr := memsys.Addr(0x10000)
	line := c.array.Insert(addr)
	line.state = l1S
	op := &Request{Kind: ReqLoad, Addr: addr, Done: func(*Request, uint64, bool) {}}
	if n := testing.AllocsPerRun(1000, func() {
		c.dispatch(int(l1Load), addr, line, nil, op)
	}); n != 0 {
		t.Fatalf("dispatch allocates %v objects per call, want 0", n)
	}
	if tracker.Covered() != 1 {
		t.Fatalf("records did not land: covered %d, want 1", tracker.Covered())
	}
}

// churn drives a seeded mix over the 8 KB layout, whose partitions
// collide in the tiny test caches: L1 and L2 replacements, memory
// writebacks (which leave TSO-CC writer metadata at the controller) and
// timestamp resets all occur. It returns every loaded value.
func (ts *testSys) churn(seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	pool := memsys.MustLayout(8192, 16).Pool()
	var loaded []uint64
	for i := 0; i < 600; i++ {
		core := rng.Intn(tCores)
		addr := pool[rng.Intn(len(pool))]
		switch rng.Intn(5) {
		case 0, 1:
			ts.store(core, addr, uint64(seed)<<32|uint64(i+1))
		case 2:
			loaded = append(loaded, ts.load(core, addr))
		case 3:
			loaded = append(loaded, ts.atomic(core, addr, uint64(seed)<<32|uint64(i+1)))
		case 4:
			ts.flush(core, addr)
		}
	}
	ts.quiesce()
	ts.checkNoErrors()
	return loaded
}

// TestResetReplaysANewSystem: after every component's Reset, a system
// that already ran one workload runs another exactly as a new system
// does — same loaded values, same transition multiset, same final tick
// and event count. TSO-CC also runs with the timestamp-compare filter
// live (its bug injection), the one configuration in which a core's
// last-seen table steers the protocol.
func TestResetReplaysANewSystem(t *testing.T) {
	for _, tc := range []struct {
		name, proto string
		bug         bugs.Set
	}{
		{"MESI", "MESI", bugs.Set{}},
		{"TSO-CC", "TSO-CC", bugs.Set{}},
		{"TSO-CC+compare", "TSO-CC", bugs.Set{TSOCCCompare: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := newSys(t, tc.proto, 31, tc.bug)
			want := fresh.churn(31)

			used := newSys(t, tc.proto, 77, tc.bug)
			used.churn(77)
			used.cov = newCovCounter(tc.proto)
			used.sim.Reset(31)
			used.net.Reset()
			used.ctrl.Reset()
			used.resetAll(used.cov)
			got := used.churn(31)

			if !reflect.DeepEqual(got, want) {
				t.Error("loaded values differ between the reset system and a new one")
			}
			if !reflect.DeepEqual(used.cov.seen, fresh.cov.seen) {
				t.Error("transition multisets differ between the reset system and a new one")
			}
			if used.sim.Now() != fresh.sim.Now() || used.sim.Executed() != fresh.sim.Executed() {
				t.Errorf("reset system ended at tick %d after %d events, a new one at tick %d after %d",
					used.sim.Now(), used.sim.Executed(), fresh.sim.Now(), fresh.sim.Executed())
			}
		})
	}
}

func TestResetCaches(t *testing.T) {
	for _, proto := range protocols {
		t.Run(proto, func(t *testing.T) {
			ts := newSys(t, proto, 11, bugs.Set{})
			a := memsys.Addr(0x60000)
			ts.store(0, a, 5)
			// Resets only happen at quiescence (the host interface
			// barriers guarantee this).
			ts.quiesce()
			ts.resetAllCaches()
			// After a cache reset with zeroed memory, reads return 0.
			ts.mem.Clear()
			if got := ts.load(0, a); got != 0 {
				t.Fatalf("read after reset = %d, want 0", got)
			}
			ts.checkNoErrors()
		})
	}
}
