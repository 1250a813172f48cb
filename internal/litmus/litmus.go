// Package litmus reproduces the diy tool-suite substrate (§5.2.2): it
// generates litmus tests from critical cycles of candidate relaxations
// (Alglave et al.'s edge notation: Rfe, Fre, Wse, PodRR/RW/WR/WW and
// fenced variants), synthesizes the forbidden outcome, and provides a
// lowering to the machine-executable test representation.
//
// Generation follows diy's principle: enumerate cycles over the edge
// alphabet, materialize each cycle into threads/locations/final
// condition, and keep tests whose final condition is forbidden by the
// target model. Instead of re-deriving forbiddenness by hand, the
// materialized candidate execution is checked against this repository's
// own axiomatic model: invalid execution ⇒ forbidden outcome ⇒ usable
// conformance test.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/relation"
	"repro/internal/testgen"
)

// EdgeKind is one candidate-relaxation edge of the diy cycle notation.
type EdgeKind uint8

const (
	// Rfe: external read-from — a write read by an event on another
	// thread (same location).
	Rfe EdgeKind = iota
	// Fre: external from-read — a read coherence-before a write on
	// another thread (same location).
	Fre
	// Wse: external write serialization (coe) — two writes to the same
	// location on different threads, coherence-ordered.
	Wse
	// PodRR..PodWW: program-order edges to a different location, with
	// the given endpoint kinds.
	PodRR
	PodRW
	PodWR
	PodWW
	// MFencedWR: a W→R program-order pair separated by mfence (the
	// fence that restores order under TSO).
	MFencedWR
	// SSFencedWW: a W→W program-order pair separated by a store-store
	// fence (the fence that restores order under PSO/RMO).
	SSFencedWW
	// LLFencedRR: an R→R program-order pair separated by a load-load
	// fence (the fence that restores order under RMO).
	LLFencedRR

	numEdgeKinds
)

var edgeNames = [...]string{"Rfe", "Fre", "Wse", "PodRR", "PodRW", "PodWR", "PodWW", "MFencedWR", "SSFencedWW", "LLFencedRR"}

func (e EdgeKind) String() string { return edgeNames[e] }

// external reports whether the edge crosses threads (conflict edge).
func (e EdgeKind) external() bool { return e <= Wse }

// srcIsWrite/dstIsWrite give the event kinds the edge's endpoints must
// have.
func (e EdgeKind) srcIsWrite() bool {
	switch e {
	case Rfe, Wse, PodWR, PodWW, MFencedWR, SSFencedWW:
		return true
	default:
		return false
	}
}

func (e EdgeKind) dstIsWrite() bool {
	switch e {
	case Fre, Wse, PodRW, PodWW, SSFencedWW:
		return true
	default:
		return false
	}
}

// fence returns the fence flavour a program-order edge inserts between
// its endpoints, if any.
func (e EdgeKind) fence() (memmodel.FenceKind, bool) {
	switch e {
	case MFencedWR:
		return memmodel.FenceFull, true
	case SSFencedWW:
		return memmodel.FenceSS, true
	case LLFencedRR:
		return memmodel.FenceLL, true
	default:
		return 0, false
	}
}

// Cycle is a sequence of edges, interpreted cyclically.
type Cycle []EdgeKind

func (c Cycle) String() string {
	parts := make([]string, len(c))
	for i, e := range c {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// counts returns the number of external and program-order edges.
func (c Cycle) counts() (ext, po int) {
	for _, e := range c {
		if e.external() {
			ext++
		} else {
			po++
		}
	}
	return ext, po
}

// wellFormed checks endpoint-kind consistency around the cycle and the
// diy shape requirements: at least two threads (external edges) and at
// least two locations (program-order edges).
func (c Cycle) wellFormed() bool {
	if len(c) < 4 {
		return false
	}
	for i, e := range c {
		next := c[(i+1)%len(c)]
		if e.dstIsWrite() != next.srcIsWrite() {
			return false
		}
	}
	ext, po := c.counts()
	return ext >= 2 && po >= 2
}

// canonical returns the lexicographically-minimal rotation, used to
// deduplicate cycles.
func (c Cycle) canonical() string {
	best := ""
	for r := 0; r < len(c); r++ {
		var b strings.Builder
		for i := 0; i < len(c); i++ {
			fmt.Fprintf(&b, "%02d.", c[(r+i)%len(c)])
		}
		if best == "" || b.String() < best {
			best = b.String()
		}
	}
	return best
}

// rotateToExternalClose returns a rotation whose last edge is external,
// so the walk's thread assignment closes back onto thread 0.
func (c Cycle) rotateToExternalClose() (Cycle, bool) {
	for r := 0; r < len(c); r++ {
		last := c[(r+len(c)-1)%len(c)]
		if last.external() {
			out := make(Cycle, len(c))
			for i := range out {
				out[i] = c[(r+i)%len(c)]
			}
			return out, true
		}
	}
	return nil, false
}

// Event is one instruction of a materialized litmus test.
type Event struct {
	// Thread and Index locate the event in its thread's program.
	Thread, Index int
	// IsWrite distinguishes store from load.
	IsWrite bool
	// Var is the location number (0 = x, 1 = y, ...).
	Var int
	// Val is the value written (writes) or expected under the
	// forbidden outcome (reads; filled by the execution builder).
	Val uint64
	// FenceBefore inserts a fence of FenceKind before this event.
	FenceBefore bool
	// FenceKind is the flavour of the inserted fence.
	FenceKind memmodel.FenceKind
}

// Test is a materialized litmus test.
type Test struct {
	// Name is the canonical family name when recognized (SB, MP, ...)
	// or the cycle string.
	Name string
	// Cycle is the generating cycle (rotated to external closure).
	Cycle Cycle
	// Threads holds per-thread event lists in program order.
	Threads [][]Event
	// FinalWrites gives, per location, the value the coherence-last
	// write must leave (part of the forbidden outcome).
	FinalWrites map[int]uint64
	// NumVars is the number of locations used.
	NumVars int

	// walk records the cycle's slot order as (thread, index) pairs.
	walk [][2]int
}

// String renders the test litmus-style.
func (t *Test) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.Name, t.Cycle)
	for tid, evs := range t.Threads {
		fmt.Fprintf(&b, "  P%d:", tid)
		for _, e := range evs {
			if e.FenceBefore {
				switch e.FenceKind {
				case memmodel.FenceSS:
					b.WriteString(" membar.ss;")
				case memmodel.FenceLL:
					b.WriteString(" membar.ll;")
				default:
					b.WriteString(" mfence;")
				}
			}
			v := string(rune('x' + e.Var))
			if e.IsWrite {
				fmt.Fprintf(&b, " %s=%d;", v, e.Val)
			} else {
				fmt.Fprintf(&b, " r=%s(expect %d);", v, e.Val)
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("  forbidden: reads observe expectations")
	finals := make([]int, 0, len(t.FinalWrites))
	for v := range t.FinalWrites {
		finals = append(finals, v)
	}
	sort.Ints(finals)
	for _, v := range finals {
		fmt.Fprintf(&b, " ∧ %c=%d", rune('x'+v), t.FinalWrites[v])
	}
	b.WriteByte('\n')
	return b.String()
}

// materialize turns an external-closing cycle into a test following
// diy's walk: the thread advances on external edges; the location
// advances on program-order edges, modulo the number of po edges, so the
// walk closes consistently. Each slot is the source event of its edge.
func materialize(c Cycle) (*Test, bool) {
	n := len(c)
	_, nPo := c.counts()
	if nPo < 2 {
		return nil, false
	}
	if !c[n-1].external() {
		return nil, false
	}
	t := &Test{Cycle: append(Cycle(nil), c...), FinalWrites: map[int]uint64{}}
	thread, loc := 0, 0
	maxVar := 0
	fenceNext := false
	fenceKind := memmodel.FenceFull
	for _, e := range c {
		ev := Event{
			Thread:      thread,
			IsWrite:     e.srcIsWrite(),
			Var:         loc,
			FenceBefore: fenceNext,
			FenceKind:   fenceKind,
		}
		fenceNext = false
		fenceKind = memmodel.FenceFull
		for thread >= len(t.Threads) {
			t.Threads = append(t.Threads, nil)
		}
		ev.Index = len(t.Threads[thread])
		t.Threads[thread] = append(t.Threads[thread], ev)
		t.walk = append(t.walk, [2]int{thread, ev.Index})
		if loc > maxVar {
			maxVar = loc
		}
		if e.external() {
			thread++
		} else {
			loc = (loc + 1) % nPo
			if k, ok := e.fence(); ok {
				fenceNext = true
				fenceKind = k
			}
		}
	}
	// The wrap-around: the final external edge returns to thread 0 and
	// location 0 (loc wrapped because the walk applied all nPo
	// increments).
	if loc != 0 {
		return nil, false
	}
	if fenceNext {
		// A trailing MFencedWR cannot occur (last edge is external).
		return nil, false
	}
	if len(t.Threads) < 2 {
		return nil, false
	}
	t.NumVars = maxVar + 1
	// Distinct nonzero values per (location, write).
	valCounter := map[int]uint64{}
	for ti := range t.Threads {
		for ei := range t.Threads[ti] {
			ev := &t.Threads[ti][ei]
			if ev.IsWrite {
				valCounter[ev.Var]++
				ev.Val = valCounter[ev.Var]
			}
		}
	}
	return t, true
}

// buildExecution constructs the candidate execution the cycle describes
// through memmodel.Builder: co per location is the topological order of
// the Wse and (Rfe;Fre) constraints, Rfe edges fix rf, and
// unconstrained reads observe the initial value. The rf and co plans
// are computed over (thread, index) slots before any event exists, so
// every read's observed value is known at creation — the shape the
// builder (and the trace format it also serves) requires. Returns
// ok=false when the constraints are inconsistent (degenerate cycles).
func buildExecution(t *Test) (*memmodel.Execution, bool) {
	type slot = [2]int // (thread, index)
	slotAt := func(i int) slot { return t.walk[i%len(t.walk)] }
	slotEv := func(i int) Event {
		ref := slotAt(i)
		return t.Threads[ref[0]][ref[1]]
	}

	// Plan rf: the dst of each Rfe reads the src.
	rfOf := map[slot]slot{}
	for i, e := range t.Cycle {
		if e == Rfe {
			rfOf[slotAt(i+1)] = slotAt(i)
		}
	}

	// Plan co: ordering constraints per location.
	var constraints []coSlotPair
	for i, e := range t.Cycle {
		switch e {
		case Wse:
			constraints = append(constraints, coSlotPair{slotAt(i), slotAt(i + 1)})
		case Fre:
			// The read's rf source (or the initial write) must be
			// coherence-before the dst write. Reads of the initial value
			// are trivially satisfied (the initial write is co-minimal).
			if w, ok := rfOf[slotAt(i)]; ok {
				constraints = append(constraints, coSlotPair{w, slotAt(i + 1)})
			}
		}
	}
	perVar := map[int][]slot{}
	for i := range t.walk {
		if ev := slotEv(i); ev.IsWrite {
			perVar[ev.Var] = append(perVar[ev.Var], slotAt(i))
		}
	}
	coOrder := map[int][]slot{}
	for v, writes := range perVar {
		order, ok := topo(writes, constraints)
		if !ok {
			return nil, false
		}
		coOrder[v] = order
	}

	// Resolve read expectations before materializing: an Rfe target
	// observes its source's value, everything else the initial value.
	val := func(s slot) uint64 { return t.Threads[s[0]][s[1]].Val }
	for ti, evs := range t.Threads {
		for ei := range evs {
			if evs[ei].IsWrite {
				continue
			}
			if w, ok := rfOf[slot{ti, ei}]; ok {
				t.Threads[ti][ei].Val = val(w)
			} else {
				t.Threads[ti][ei].Val = 0
			}
		}
	}

	// Materialize through the builder with the same stable keys the raw
	// construction used (fences at Instr 1000+index keep clear of the
	// access slots).
	b := memmodel.NewBuilder()
	ids := map[slot]relation.EventID{}
	for ti, evs := range t.Threads {
		for ei, ev := range evs {
			if ev.FenceBefore {
				b.FenceKeyed(memmodel.Key{TID: ti, Instr: 1000 + ei}, ev.FenceKind)
			}
			key := memmodel.Key{TID: ti, Instr: ei}
			if ev.IsWrite {
				ids[slot{ti, ei}] = b.WriteKeyed(key, VarAddr(ev.Var), ev.Val, false)
			} else {
				ids[slot{ti, ei}] = b.ReadKeyed(key, VarAddr(ev.Var), ev.Val, false)
			}
		}
	}
	for v, order := range coOrder {
		writes := make([]relation.EventID, len(order))
		for i, s := range order {
			writes[i] = ids[s]
		}
		b.CO(VarAddr(v), writes...)
		t.FinalWrites[v] = val(order[len(order)-1])
	}
	for ti, evs := range t.Threads {
		for ei, ev := range evs {
			if ev.IsWrite {
				continue
			}
			if w, ok := rfOf[slot{ti, ei}]; ok {
				b.SetRF(ids[slot{ti, ei}], ids[w])
			} else {
				b.SetRFInit(ids[slot{ti, ei}])
			}
		}
	}
	x, err := b.Build()
	if err != nil {
		return nil, false
	}
	return x, true
}

// coSlotPair is one must-precede coherence constraint over (thread,
// index) slots.
type coSlotPair struct{ a, b [2]int }

// topo orders slots under must-precede constraints, preserving input
// order among unconstrained slots; ok=false on a constraint cycle.
func topo(nodes [][2]int, constraints []coSlotPair) ([][2]int, bool) {
	in := map[[2]int]bool{}
	for _, n := range nodes {
		in[n] = true
	}
	succ := map[[2]int][][2]int{}
	deg := map[[2]int]int{}
	for _, c := range constraints {
		if in[c.a] && in[c.b] {
			succ[c.a] = append(succ[c.a], c.b)
			deg[c.b]++
		}
	}
	var out [][2]int
	taken := map[[2]int]bool{}
	for len(out) < len(nodes) {
		progressed := false
		for _, n := range nodes {
			if taken[n] || deg[n] > 0 {
				continue
			}
			taken[n] = true
			out = append(out, n)
			for _, s := range succ[n] {
				deg[s]--
			}
			progressed = true
			break
		}
		if !progressed {
			return nil, false
		}
	}
	return out, true
}

// VarAddr maps a litmus location to a word address on its own cache
// line, so litmus locations never false-share.
func VarAddr(v int) memsys.Addr {
	return memsys.DefaultBase + memsys.Addr(v)*memsys.LineSize
}

// Forbidden reports whether the test's outcome is forbidden under arch
// by checking the materialized candidate execution.
func Forbidden(t *Test, arch memmodel.Arch) bool {
	x, ok := t.Execution()
	if !ok {
		return false
	}
	return !memmodel.NewChecker().Check(x, arch).Valid
}

// Execution materializes the candidate execution of the test's
// forbidden outcome — the shape the cycle describes, with every read
// observing its expectation. Exported so the oracle layer can ship the
// corpus as known-answer traces; ok=false on degenerate cycles.
func (t *Test) Execution() (*memmodel.Execution, bool) {
	return buildExecution(t)
}

// wellKnownNames maps canonical cycles to their classic names.
var wellKnownNames = map[string]string{
	(Cycle{Wse, PodWW, Wse, PodWW}).canonical():             "2+2W",
	(Cycle{Rfe, PodRR, Fre, PodWW}).canonical():             "MP",
	(Cycle{Fre, PodWR, Fre, PodWR}).canonical():             "SB",
	(Cycle{Rfe, PodRW, Rfe, PodRW}).canonical():             "LB",
	(Cycle{Wse, PodWR, Fre, PodWW}).canonical():             "R",
	(Cycle{Rfe, PodRW, Wse, PodWW}).canonical():             "S",
	(Cycle{Rfe, PodRR, Fre, PodWW, Rfe, PodRR}).canonical(): "WRC-shape",
	(Cycle{Rfe, PodRR, Fre, Rfe, PodRR, Fre}).canonical():   "IRIW",
	(Cycle{MFencedWR, Fre, MFencedWR, Fre}).canonical():     "SB+mfences",
	(Cycle{Rfe, LLFencedRR, Fre, SSFencedWW}).canonical():   "MP+fences",
	(Cycle{Wse, SSFencedWW, Wse, SSFencedWW}).canonical():   "2+2W+ssfences",
}

// alphabet returns the edge kinds relevant for arch. A fence edge whose
// flavour restores an order the model's row already keeps generates a
// shape indistinguishable from its unfenced twin, so each fence enters
// the alphabet only for models that relax the order it restores — the
// same reason diy's x86 alphabet carries mfence but no membar flavours.
func alphabet(arch memmodel.Arch) []EdgeKind {
	edges := []EdgeKind{Rfe, Fre, Wse, PodRR, PodRW, PodWR, PodWW}
	row := arch.Row()
	if !row.Keeps(memmodel.WR) {
		edges = append(edges, MFencedWR)
	}
	if !row.Keeps(memmodel.WW) {
		edges = append(edges, SSFencedWW)
	}
	if !row.Keeps(memmodel.RR) {
		edges = append(edges, LLFencedRR)
	}
	return edges
}

// Generate enumerates well-formed cycles length by length up to maxLen
// over arch's edge alphabet, deduplicates rotations, keeps those whose
// outcome is forbidden under arch, and returns up to limit tests (diy
// generated 38 for x86-TSO).
func Generate(arch memmodel.Arch, maxLen, limit int) []*Test {
	seen := make(map[string]bool)
	edges := alphabet(arch)
	var out []*Test
	for n := 4; n <= maxLen && len(out) < limit; n++ {
		c := make(Cycle, n)
		var rec func(pos int)
		rec = func(pos int) {
			if len(out) >= limit {
				return
			}
			if pos == n {
				if cand := tryCycle(c, arch, seen); cand != nil {
					out = append(out, cand)
				}
				return
			}
			for _, e := range edges {
				c[pos] = e
				rec(pos + 1)
			}
		}
		rec(0)
	}
	return out
}

func tryCycle(c Cycle, arch memmodel.Arch, seen map[string]bool) *Test {
	if !c.wellFormed() {
		return nil
	}
	canon := c.canonical()
	if seen[canon] {
		return nil
	}
	seen[canon] = true
	rotated, ok := c.rotateToExternalClose()
	if !ok {
		return nil
	}
	t, ok := materialize(rotated)
	if !ok {
		return nil
	}
	if !Forbidden(t, arch) {
		return nil
	}
	if name, ok := wellKnownNames[canon]; ok {
		t.Name = name
	} else {
		t.Name = rotated.String()
	}
	return t
}

// Lowered is a litmus test compiled for the machine, with its forbidden
// outcome restated in the compiled program's values: the write ID
// (testgen.WriteIDFor) each probed read observes and each location's
// coherence-last write stores, 0 standing for the initial value.
type Lowered struct {
	Source *Test
	Test   *testgen.Test
	Probes []ReadProbe
	// Final holds, per location, the value its coherence-last write
	// leaves under the forbidden outcome.
	Final []uint64
}

// ReadProbe locates one read of the lowered test and the value it
// observes under the forbidden outcome.
type ReadProbe struct {
	Thread, Instr int
	Var           int
	ExpectValue   uint64
}

// ToTestgen lowers a litmus test into the flat ⟨pid,op⟩ representation
// executable by a machine with the given thread count. The test's
// layout is its variables' lines, so the host's reset_test_mem zeroes
// exactly those.
func ToTestgen(t *Test, threads int) (*Lowered, error) {
	if len(t.Threads) > threads {
		return nil, fmt.Errorf("litmus: test needs %d threads, machine has %d", len(t.Threads), threads)
	}
	// VarAddr and Layout.Translate agree only inside one partition.
	if maxVars := memsys.PartitionSize / memsys.LineSize; t.NumVars > maxVars {
		return nil, fmt.Errorf("litmus: test uses %d locations, one partition holds %d", t.NumVars, maxVars)
	}
	low := &Lowered{
		Source: t,
		Test: &testgen.Test{
			Threads: threads,
			Layout:  memsys.Layout{Base: memsys.DefaultBase, Size: t.NumVars * memsys.LineSize, Stride: memsys.LineSize},
		},
		Final: make([]uint64, t.NumVars),
	}
	// ids maps a (location, litmus value) write to the write ID its
	// compiled instruction stores, as CompileInto assigns it.
	type write struct {
		v   int
		val uint64
	}
	ids := map[write]uint64{}
	for ti, evs := range t.Threads {
		instr := 0
		for _, ev := range evs {
			if ev.FenceBefore {
				low.Test.Nodes = append(low.Test.Nodes, testgen.Node{
					PID: ti,
					Op:  testgen.Op{Kind: testgen.OpFence, Fence: ev.FenceKind},
				})
				instr++
			}
			op := testgen.Op{Kind: testgen.OpRead, Addr: VarAddr(ev.Var)}
			if ev.IsWrite {
				op.Kind = testgen.OpWrite
				ids[write{ev.Var, ev.Val}] = testgen.WriteIDFor(ti, instr)
			} else {
				low.Probes = append(low.Probes, ReadProbe{Thread: ti, Instr: instr, Var: ev.Var, ExpectValue: ev.Val})
			}
			low.Test.Nodes = append(low.Test.Nodes, testgen.Node{PID: ti, Op: op})
			instr++
		}
	}
	// A litmus value 0 is the initial value, which no write stores.
	for i := range low.Probes {
		p := &low.Probes[i]
		p.ExpectValue = ids[write{p.Var, p.ExpectValue}]
	}
	for v := range low.Final {
		low.Final[v] = ids[write{v, t.FinalWrites[v]}]
	}
	return low, nil
}
