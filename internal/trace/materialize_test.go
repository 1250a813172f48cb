package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/memmodel/exectest"
	"repro/internal/memsys"
	"repro/internal/relation"
)

// TestMaterializeErrorPrecedence: the first malformed thing in trace
// order is the one reported, whichever kind it is — a duplicate key
// found after the walk still comes before a later thread's redeclaration
// or unknown op — and sticky builder errors surface last, at Build.
func TestMaterializeErrorPrecedence(t *testing.T) {
	w := func(instr int32) Op {
		return Op{Kind: OpWrite, Addr: 0x100, Value: uint64(instr + 1), Keyed: true, Instr: instr}
	}
	for name, tc := range map[string]struct {
		tr   *Trace
		want string
	}{
		"duplicate before redeclaration": {&Trace{Threads: []Thread{
			{TID: 0, Ops: []Op{w(4), w(2), w(4)}}, {TID: 1}, {TID: 1},
		}}, "duplicate event key 0:4"},
		"redeclaration before duplicate": {&Trace{Threads: []Thread{
			{TID: 1}, {TID: 0}, {TID: 1, Ops: []Op{w(4), w(4)}},
		}}, "thread 1 declared twice"},
		"first of two redeclarations": {&Trace{Threads: []Thread{
			{TID: 5}, {TID: 3}, {TID: 3}, {TID: 5},
		}}, "thread 3 declared twice"},
		"duplicate before unknown kind": {&Trace{Threads: []Thread{
			{TID: 2, Ops: []Op{w(1), w(1), {Kind: numOpKinds}}},
		}}, "duplicate event key 2:1"},
		"unknown kind before duplicate": {&Trace{Threads: []Thread{
			{TID: 2, Ops: []Op{w(1), {Kind: numOpKinds}, w(1)}},
		}}, "thread 2 op 1: unknown kind 4"},
		"first duplicate in insertion order": {&Trace{Threads: []Thread{
			{TID: 0, Ops: []Op{w(9), w(3), w(3), w(9)}},
		}}, "duplicate event key 0:3"},
		"unknown ref before sticky fence kind": {&Trace{
			Threads: []Thread{{TID: 0, Ops: []Op{{Kind: OpFence, Fence: 9}, {Kind: OpRead, Addr: 0x100}}}},
			RF:      []RFEdge{{Read: Ref{TID: 0, Instr: 7}, Init: true}},
		}, "rf references unknown event 0:7"},
		"refused fence still owns its key": {&Trace{
			Threads: []Thread{{TID: 0, Ops: []Op{{Kind: OpFence, Fence: 9}, {Kind: OpRead, Addr: 0x100, Keyed: true}}}},
		}, "duplicate event key 0:0"},
	} {
		_, err := tc.tr.Execution()
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ...%s", name, err, tc.want)
		}
	}
}

// TestMaterializerReuseMatchesFresh: a Materializer fed traces of every
// size in shuffled order, through both routes, returns, trace for trace,
// what Trace.Execution returns on storage of its own — the same events,
// rf, co orders and address slots (executionDiff).
func TestMaterializerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var traces []*Trace
	for i := 0; i < 40; i++ {
		tr, err := FromExecution(fmt.Sprintf("rand%d", i), randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		// Its threads in reverse TID order: the Builder builds it, and the
		// next canonical trace builds into what the one before it left.
		rev := &Trace{Name: tr.Name + "-reversed", Threads: slices.Clone(tr.Threads), RF: tr.RF, CO: tr.CO}
		slices.Reverse(rev.Threads)
		traces = append(traces, tr, rev)
	}
	traces = append(traces, extremeTrace(), residue, &Trace{}, &Trace{Threads: []Thread{{TID: 4}, {TID: 4}}})
	var m Materializer
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(traces), func(i, j int) { traces[i], traces[j] = traces[j], traces[i] })
		for _, tr := range traces {
			materializeBothWays(t, tr)
			// And through the one long-lived materializer.
			fresh, ferr := tr.Execution()
			reused, rerr := m.Execution(tr)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("fresh: %v, reused: %v", ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			if diff := executionDiff(fresh, reused); diff != "" {
				t.Fatalf("%s reused: %s", tr.label(), diff)
			}
		}
	}
}

// TestBuilderRouteAfterShrinkingCanonical: canonical traces reserve
// each address slot's coherence order as a window of one shared array,
// and a later, smaller one re-lays only its own slots over that array.
// A Materializer that built a wide and then a long canonical trace
// answers a trace of the Builder's route, which touches more slots than
// the last canonical one, as a fresh one does: its orders come out as
// on storage of their own.
func TestBuilderRouteAfterShrinkingCanonical(t *testing.T) {
	var wide, long strings.Builder
	wide.WriteString("trace wide\nthread 0\n")
	for a := 0; a < 8; a++ {
		fmt.Fprintf(&wide, "w %#x 1\nw %#x 2\n", 0x100+0x40*a, 0x100+0x40*a)
	}
	for a := 0; a < 8; a++ {
		fmt.Fprintf(&wide, "co %#x 0:%d 0:%d\n", 0x100+0x40*a, 2*a, 2*a+1)
	}
	wide.WriteString("end\n")
	long.WriteString("trace long\nthread 0\n")
	for v := 1; v <= 8; v++ {
		fmt.Fprintf(&long, "w 0x100 %d\n", v)
	}
	long.WriteString("co 0x100 0:0 0:1 0:2 0:3 0:4 0:5 0:6 0:7\nend\n")
	// Threads out of TID order and no co lines: the Builder's route.
	resolved := "trace resolved\nthread 1\nw 0x100 1\nw 0x100 2\nw 0x100 3\nw 0x100 4\nw 0x100 5\nw 0x140 6\nw 0x140 7\n" +
		"thread 0\nr 0x100 5\nr 0x140 7\nend\n"

	d := NewDecoder(strings.NewReader("mctrace 1\n" + wide.String() + long.String() + resolved))
	var m Materializer
	for _, name := range []string{"wide", "long", "resolved"} {
		tr, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.Execution()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := m.Execution(tr)
		if err != nil {
			t.Fatalf("%s into used storage: %v", name, err)
		}
		if diff := executionDiff(want, got); diff != "" {
			t.Fatalf("%s into used storage: %s", name, diff)
		}
	}
}

// allocatedBytes returns the heap bytes one call of f allocates (the
// least of a few calls, so a stray background allocation does not count).
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestMaterializeSizedByCountsNotValues: the three-op trace carrying
// TID and Instr 2³¹−1, sparse keys and address 2⁶⁴−8 materializes, and
// in its canonical form signs, in exactly the bytes its twin with small
// values takes, within a fixed bound — storage is sized by how many
// things a trace has, never by what they are called.
func TestMaterializeSizedByCountsNotValues(t *testing.T) {
	extreme := extremeTrace()
	twin := &Trace{
		Name: "twin...", // as long as "extreme": the name reaches no allocation, but keep the inputs alike
		Threads: []Thread{
			{TID: 4, Ops: []Op{
				{Kind: OpWrite, Addr: 0x100, Value: 9, Keyed: true, Instr: 2},
				{Kind: OpRMW, Addr: 0x100, Value: 9, Value2: 1, Keyed: true, Instr: 5},
			}},
			{TID: 3, Ops: []Op{{Kind: OpRead, Addr: 0x100, Value: 1, Keyed: true, Instr: 5, Sub: 5}}},
		},
		RF: []RFEdge{
			{Read: Ref{TID: 4, Instr: 5}, Write: Ref{TID: 4, Instr: 2}},
			{Read: Ref{TID: 3, Instr: 5, Sub: 5}, Write: Ref{TID: 4, Instr: 5, Sub: 1}},
		},
		CO: []COOrder{{Addr: 0x100, Writes: []Ref{{TID: 4, Instr: 2}, {TID: 4, Instr: 5, Sub: 1}}}},
	}
	materialize := func(tr *Trace) func() {
		return func() {
			if _, err := tr.Execution(); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := allocatedBytes(materialize(twin)), allocatedBytes(materialize(extreme))
	t.Logf("%d B with small values, %d B with the largest", small, large)
	const bound = 8 << 10
	if small != large || large > bound {
		t.Fatalf("%d B allocated with small values, %d B with the largest (bound %d)", small, large, bound)
	}

	// Signing their canonical forms from their fields, likewise.
	sign := func(tr *Trace) func() {
		x, err := tr.Execution()
		if err != nil {
			t.Fatal(err)
		}
		canon, err := FromExecution(tr.Name, x)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			var m Materializer
			if _, ok := m.Sign(canon); !ok {
				t.Fatalf("%s: the canonical form fell back to materializing", tr.Name)
			}
		}
	}
	small, large = allocatedBytes(sign(twin)), allocatedBytes(sign(extreme))
	t.Logf("signing: %d B with small values, %d B with the largest", small, large)
	if small != large || large > bound {
		t.Fatalf("signing: %d B allocated with small values, %d B with the largest (bound %d)", small, large, bound)
	}
}

// TestMaterializeIntoGrownStorageAllocatesNothing: once a Materializer
// has held a trace, materializing it again — threads, address table,
// key lookups, coherence orders, the sorted address list — happens
// entirely in what it kept.
func TestMaterializeIntoGrownStorageAllocatesNothing(t *testing.T) {
	tr, err := FromExecution("grown", exectest.SC(2))
	if err != nil {
		t.Fatal(err)
	}
	var m Materializer
	if _, err := m.Execution(tr); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := m.Execution(tr); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("materializing into grown storage allocates %.0f objects, want 0", n)
	}
}

// executionDiff says how got differs from want, or returns "": the
// events (ID, key, kind, PO and the rest), each event's rf source,
// coherence position and address slot, each address's coherence order,
// the number of address slots, Threads and Addresses.
func executionDiff(want, got *memmodel.Execution) string {
	switch {
	case !slices.Equal(want.Events(), got.Events()):
		return fmt.Sprintf("events\n want %v\n got  %v", want.Events(), got.Events())
	case !slices.Equal(want.Threads(), got.Threads()):
		return fmt.Sprintf("threads %v, want %v", got.Threads(), want.Threads())
	case !slices.Equal(want.Addresses(), got.Addresses()):
		return fmt.Sprintf("addresses %v, want %v", got.Addresses(), want.Addresses())
	case want.NumAddrSlots() != got.NumAddrSlots():
		return fmt.Sprintf("%d address slots, want %d", got.NumAddrSlots(), want.NumAddrSlots())
	}
	for id := range relation.EventID(want.NumEvents()) {
		wrf, wok := want.RF(id)
		grf, gok := got.RF(id)
		wco, wcok := want.COIndex(id)
		gco, gcok := got.COIndex(id)
		switch {
		case wrf != grf || wok != gok:
			return fmt.Sprintf("event %d reads from %d, %v; want %d, %v", id, grf, gok, wrf, wok)
		case wco != gco || wcok != gcok:
			return fmt.Sprintf("event %d at co position %d, %v; want %d, %v", id, gco, gcok, wco, wcok)
		case want.AddrSlot(id) != got.AddrSlot(id):
			return fmt.Sprintf("event %d in address slot %d, want %d", id, got.AddrSlot(id), want.AddrSlot(id))
		}
	}
	for _, addr := range want.Addresses() {
		if !slices.Equal(want.CO(addr), got.CO(addr)) {
			return fmt.Sprintf("co of %#x is %v, want %v", uint64(addr), got.CO(addr), want.CO(addr))
		}
	}
	return ""
}

// checkRoutes holds Materializer.Execution to the Builder route on tr:
// a fresh Materializer, and one that has materialized residue (through
// the Builder) and then canonicalResidue (from its fields), give the
// execution, or the error, the Builder route gives. It reports whether
// tr was built from its fields.
func checkRoutes(t testing.TB, tr *Trace) bool {
	t.Helper()
	want, werr := viaBuilder(tr)
	var used Materializer
	for _, prior := range []*Trace{residue, canonicalResidue} {
		if _, err := used.Execution(prior); err != nil {
			t.Fatalf("%s: %v", prior.Name, err)
		}
	}
	for _, m := range []*Materializer{new(Materializer), &used} {
		got, gerr := m.Execution(tr)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("%s: the Builder route gives error %v, Execution %v", tr.Name, werr, gerr)
		}
		if werr == nil {
			if d := executionDiff(want, got); d != "" {
				t.Fatalf("%s: Execution differs from the Builder route: %s", tr.Name, d)
			}
		}
	}
	var probe Materializer
	_, direct := probe.build(tr)
	if direct && werr != nil {
		t.Fatalf("%s: built from its fields, but the Builder route fails: %v", tr.Name, werr)
	}
	return direct
}

// TestMaterializeMatchesBuilder: random executions as canonical traces,
// their text and binary round trips and the litmus classics are built
// from their fields, into fresh and into used storage, to exactly the
// execution the Builder route builds; the extreme and residue traces,
// which are not canonical, and their canonical forms agree as well; and
// traces of the canonical shape that fail one check each go through the
// Builder and fail with its error.
func TestMaterializeMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb1d))
	for i := 0; i < 3000; i++ {
		tr, err := FromExecution("rand", randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		var text, bin bytes.Buffer
		if err := WriteText(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		fromText, err := DecodeAll(&text)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := DecodeAll(&bin)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*Trace{tr, fromText[0], fromBin[0]} {
			if !checkRoutes(t, v) {
				t.Fatalf("iter %d: a canonical trace went through the Builder", i)
			}
		}
	}
	for _, tr := range []*Trace{extremeTrace(), residue} {
		if checkRoutes(t, tr) {
			t.Fatalf("%s: a trace of another shape was built from its fields", tr.Name)
		}
		canon, err := FromExecution(tr.Name, executionOf(tr))
		if err != nil {
			t.Fatal(err)
		}
		if !checkRoutes(t, canon) {
			t.Fatalf("%s: its canonical form went through the Builder", tr.Name)
		}
	}
	// Of the canonical shape, but failing one check each: the Builder
	// route words the error.
	w := func(instr int32, addr memsys.Addr, v uint64) Op {
		return Op{Kind: OpWrite, Addr: addr, Value: v, Keyed: true, Instr: instr}
	}
	r := func(instr int32, addr memsys.Addr, v uint64) Op {
		return Op{Kind: OpRead, Addr: addr, Value: v, Keyed: true, Instr: instr}
	}
	ref := func(instr int32) Ref { return Ref{TID: 0, Instr: instr} }
	co := func(addr memsys.Addr, instrs ...int32) COOrder {
		o := COOrder{Addr: addr}
		for _, i := range instrs {
			o.Writes = append(o.Writes, ref(i))
		}
		return o
	}
	for name, tr := range map[string]*Trace{
		"fence repeats a write's key": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1), {Kind: OpFence, Keyed: true}}}},
			CO:      []COOrder{co(0x100, 0)},
		},
		"write repeats a read's key": {
			Threads: []Thread{{Ops: []Op{r(0, 0x100, 0), w(0, 0x100, 1)}}},
			RF:      []RFEdge{{Read: ref(0), Init: true}},
			CO:      []COOrder{co(0x100, 0)},
		},
		"unknown fence kind": {
			Threads: []Thread{{Ops: []Op{{Kind: OpFence, Fence: memmodel.NumFenceKinds}}}},
		},
		"write listed at another address": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1), w(1, 0x200, 2)}}},
			CO:      []COOrder{co(0x100, 1), co(0x200, 0)},
		},
		"write listed twice": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1), w(1, 0x100, 2)}}},
			CO:      []COOrder{co(0x100, 0, 0)},
		},
		"co names an unknown event": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1)}}},
			CO:      []COOrder{co(0x100, 5)},
		},
		"rf across addresses": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1), r(1, 0x200, 1)}}},
			RF:      []RFEdge{{Read: ref(1), Write: ref(0)}},
			CO:      []COOrder{co(0x100, 0)},
		},
		"rf from a read": {
			Threads: []Thread{{Ops: []Op{r(0, 0x100, 0), r(1, 0x100, 0)}}},
			RF:      []RFEdge{{Read: ref(0), Init: true}, {Read: ref(1), Write: ref(0)}},
		},
		"rf value mismatch": {
			Threads: []Thread{{Ops: []Op{w(0, 0x100, 1), r(1, 0x100, 2)}}},
			RF:      []RFEdge{{Read: ref(1), Write: ref(0)}},
			CO:      []COOrder{co(0x100, 0)},
		},
	} {
		tr.Name = strings.ReplaceAll(name, " ", "-")
		var m Materializer
		if _, ok := m.Sign(tr); !ok {
			t.Fatalf("%s: not of the canonical shape", name)
		}
		if checkRoutes(t, tr) {
			t.Fatalf("%s: built from its fields", name)
		}
		if _, err := tr.Execution(); err == nil {
			t.Fatalf("%s: materialized", name)
		}
	}
	for _, k := range litmus.Corpus() {
		lt, ok := k.Materialize()
		if !ok {
			t.Fatalf("%s does not materialize", k.Name)
		}
		x, ok := lt.Execution()
		if !ok {
			t.Fatalf("%s has no execution", k.Name)
		}
		tr, err := FromExecution(k.Name, x)
		if err != nil {
			t.Fatal(err)
		}
		if !checkRoutes(t, tr) {
			t.Fatalf("%s: a litmus classic went through the Builder", k.Name)
		}
	}
}

// FuzzMaterialize: a random execution as a canonical trace, edited as
// FuzzSignTrace edits it, materializes — fresh and into used storage —
// to what the Builder route builds, or fails with its error. Unedited,
// it is built from its fields.
func FuzzMaterialize(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{4, 3})
	f.Add(int64(3), []byte{5, 0, 7, 1})
	f.Add(int64(4), []byte{6, 7, 8, 2})
	f.Add(int64(5), []byte{1, 0, 11, 4})
	f.Add(int64(6), []byte{9, 0, 10, 1, 4, 8})
	f.Add(int64(7), []byte{12, 0})
	f.Fuzz(func(t *testing.T, seed int64, muts []byte) {
		tr, err := FromExecution("fuzz", randExec(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatal(err)
		}
		mutate(tr, muts)
		if !checkRoutes(t, tr) && len(muts) < 2 {
			t.Fatal("an unedited canonical trace went through the Builder")
		}
	})
}

// TestOutOfOrderThreadsPinned pins the Builder route's verdicts on
// traces whose threads are listed in descending TID order, with no rf
// and no co lines: reads resolve by value, and each address's coherence
// order is its writes in the order the listing registers them. Each of
// 2000 such traces is materialized through one kept Materializer and
// decided under every model, and the SHA-256 of the stream of (index,
// model, Valid, Kind, Detail) is the one recorded before the Builder
// stopped declaring threads ahead of their events. The listing is part
// of the input: reversing it builds a different execution, so this pins
// verdicts for one fixed listing, not independence from it.
func TestOutOfOrderThreadsPinned(t *testing.T) {
	const want = "6826f490f0470cfbaceb00fdc94793418b91d6844ac9dbb298cda729f20ca45c"
	rng := rand.New(rand.NewSource(0x0d0e))
	var m Materializer
	c := memmodel.NewChecker()
	h := sha256.New()
	invalid := 0
	for i := 0; i < 2000; {
		canon, err := FromExecution("", randExec(rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(canon.Threads) < 2 {
			continue
		}
		tr := &Trace{Name: fmt.Sprintf("ooo%d", i), Threads: slices.Clone(canon.Threads)}
		slices.Reverse(tr.Threads)
		x, err := m.Execution(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		for _, arch := range allModels {
			res := c.Check(x, arch)
			if !res.Valid {
				invalid++
			}
			fmt.Fprintf(h, "%d %s %t %s %q\n", i, arch.Name(), res.Valid, res.Kind, res.Detail)
		}
		i++
	}
	if invalid == 0 {
		t.Fatal("no invalid verdicts: the stream pins nothing of the checker's diagnosis")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("verdict stream SHA-256 %s (%d invalid), want %s", got, invalid, want)
	}
}
