// Package gp implements McVerSi's Genetic-Programming test generation
// (§3): a steady-state GA with tournament selection and delete-oldest
// replacement over a population of tests, using the paper's Algorithm 1
// selective crossover that preferentially inherits memory operations on
// highly non-deterministic addresses (fitaddrs), plus the McVerSi-Std.XO
// single-point-crossover baseline of §5.2.1.
//
// Storage. An engine owns the tests and fitaddr sets it hands out: the
// test Next returns and the empty set Pending carries. Delete-oldest
// replacement frees exactly one individual's worth whenever it admits
// one, so each child is written into the storage of the individual the
// ring last evicted, and Reset keeps a finished campaign's population as
// storage for the next. Only storage the engine itself handed out is
// recycled, and only once its Individual has left the population: an
// Individual, test or fitaddr map that a caller builds and passes to
// Feedback or Immigrate is never cleared or written.
package gp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/memsys"
	"repro/internal/testgen"
)

// CrossoverKind selects the recombination operator.
type CrossoverKind int

const (
	// SelectiveCrossover is Algorithm 1 (McVerSi-ALL).
	SelectiveCrossover CrossoverKind = iota
	// SinglePointCrossover is the naive baseline (McVerSi-Std.XO):
	// thread sub-graphs are connected by splitting the flat list at a
	// random point. Its fitness additionally weighs normalized NDT
	// (handled by the campaign).
	SinglePointCrossover
)

func (k CrossoverKind) String() string {
	if k == SinglePointCrossover {
		return "std-xo"
	}
	return "selective"
}

// Params are the GP settings a campaign chooses.
type Params struct {
	// PopulationSize is the steady-state population size (Table 3:
	// 100).
	PopulationSize int `json:"PopulationSize"`
	// Crossover selects the operator. It stays off the wire: the
	// campaign's generator decides it.
	Crossover CrossoverKind `json:"-"`
}

// PaperParams returns Table 3's GP parameters for McVerSi-ALL.
func PaperParams() Params {
	return Params{PopulationSize: 100, Crossover: SelectiveCrossover}
}

// Table 3's GP operator settings.
const (
	// tournamentSize is the selection tournament size.
	tournamentSize = 2
	// pMut is the mutation probability.
	pMut = 0.005
	// pCrossover is the crossover probability: every child is a
	// crossover.
	pCrossover = 1.0
	// pUSel is the unconditional memory-operation selection
	// probability PUSEL.
	pUSel = 0.2
	// pBFA is the bias with which a mutated operation draws its
	// address from the parents' fitaddrs.
	pBFA = 0.05
)

// operators are an engine's operator settings: Table 3's, narrowed
// only by the operator tests.
type operators struct {
	tournament        int
	pMut, pUSel, pBFA float64
}

// Individual is one population member with its evaluation results.
type Individual struct {
	Test *testgen.Test
	// Fitness is the adaptive-coverage fitness (possibly blended with
	// NDT for Std.XO).
	Fitness float64
	// NDT is the run's average non-determinism.
	NDT float64
	// FitAddrs is the set of addresses whose events' NDe exceeded the
	// rounded NDT (Algorithm 1's fitaddrs(test)).
	FitAddrs map[memsys.Addr]bool
}

// Engine is the steady-state GP engine. Next proposes the next test to
// evaluate; Feedback returns its evaluation. Until the population is
// seeded, Next returns fresh random tests.
type Engine struct {
	params Params
	ops    operators
	gen    *testgen.Generator
	rng    *rand.Rand

	pop []*Individual
	// own[i] is the storage pop[i] came in, when pop[i] is an
	// Individual Pending handed out, and nil when pop[i] is the
	// caller's (a migrant, an Individual the caller built).
	own []*storage
	// oldest indexes the next delete-oldest replacement slot: the
	// population is a FIFO ring, matching the delete-oldest strategy
	// that outperforms generational GAs in non-stationary
	// environments (Vavak & Fogarty).
	oldest int
	// pending carries the test Next last returned until Feedback takes
	// it; free holds storage no individual carries any more, and made
	// counts the storage ever taken new.
	pending *storage
	free    []*storage
	made    int

	// combined is crossoverMutate's scratch: the parents' fitaddrs.
	combined []memsys.Addr
}

// storage is one individual's worth of what the engine hands out: the
// Individual, its test and its fitaddr set. ind's fields are the
// caller's to write; the engine recycles only test and fit, which it
// allocated.
type storage struct {
	ind  Individual
	test *testgen.Test
	fit  map[memsys.Addr]bool
	// seq is the storage's place in the order the engine made it.
	seq int
}

// New returns an engine drawing random genes from gen.
func New(params Params, gen *testgen.Generator, rng *rand.Rand) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(params, gen, rng); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-arms e as New(params, gen, rng) would build it, keeping the
// storage of its population for the new one's children: a reused
// engine seeds into the tests and fitaddr sets its last campaign left.
// Tests and individuals obtained from e before Reset must not be used
// after it.
func (e *Engine) Reset(params Params, gen *testgen.Generator, rng *rand.Rand) error {
	if params.PopulationSize <= 1 {
		return fmt.Errorf("gp: population size must exceed 1, got %d", params.PopulationSize)
	}
	for _, s := range e.own {
		if s != nil {
			e.free = append(e.free, s)
		}
	}
	// Children take free storage in the order it was made, whichever
	// order the last campaign freed it in: a campaign replayed on the
	// engine fills the same sets into the same maps, so none grows.
	slices.SortFunc(e.free, func(a, b *storage) int { return b.seq - a.seq })
	clear(e.pop)
	clear(e.own)
	e.params, e.gen, e.rng = params, gen, rng
	e.ops = operators{tournament: tournamentSize, pMut: pMut, pUSel: pUSel, pBFA: pBFA}
	e.pop, e.own, e.oldest, e.pending = e.pop[:0], e.own[:0], 0, nil
	return nil
}

// PopulationSize returns the current population fill.
func (e *Engine) PopulationSize() int { return len(e.pop) }

// Seeded reports whether the initial population is complete.
func (e *Engine) Seeded() bool { return len(e.pop) >= e.params.PopulationSize }

// Population exposes the population for inspection (benchmarks, tests).
func (e *Engine) Population() []*Individual { return e.pop }

// take returns free storage, or new storage when none is free, with
// its Individual reset to carry its test and its emptied fitaddr set.
func (e *Engine) take() *storage {
	var s *storage
	if n := len(e.free); n > 0 {
		s, e.free = e.free[n-1], e.free[:n-1]
		clear(s.fit)
	} else {
		s = &storage{test: new(testgen.Test), fit: map[memsys.Addr]bool{}, seq: e.made}
		e.made++
	}
	s.ind = Individual{Test: s.test, FitAddrs: s.fit}
	return s
}

// Next proposes the next test to evaluate. The test is the engine's.
// Once it comes back in Pending's Individual, the engine writes a later
// child into it after the ring has evicted that Individual.
func (e *Engine) Next() *testgen.Test {
	// A test Next returned that never came back through Feedback may
	// still be held by its caller, so it is left to the caller.
	e.pending = e.take()
	child := e.pending.test
	if !e.Seeded() {
		return e.gen.NewTestInto(child)
	}
	p1 := e.tournament()
	p2 := e.tournament()
	// The draw against pCrossover always passes; it stays so that every
	// campaign's random stream is the one its pins record.
	e.rng.Float64()
	switch e.params.Crossover {
	case SinglePointCrossover:
		e.singlePoint(child, p1, p2)
	default:
		e.crossoverMutate(child, p1, p2)
	}
	return child
}

// Pending returns the Individual carrying the test Next last returned,
// or nil before the first Next. Its FitAddrs is an empty set the engine
// owns: a caller fills it and the other fields and passes the
// Individual to Feedback, which then allocates nothing.
func (e *Engine) Pending() *Individual {
	if e.pending == nil {
		return nil
	}
	return &e.pending.ind
}

// Feedback records the evaluation of the test last returned by Next.
// When ind is Pending's Individual, its storage is recycled once the
// ring evicts it. Any other ind is the caller's, and so is the test it
// carries, even one Next returned: the engine never writes it, nor its
// FitAddrs, and defaults only a nil FitAddrs.
func (e *Engine) Feedback(ind *Individual) {
	if ind.FitAddrs == nil {
		ind.FitAddrs = map[memsys.Addr]bool{}
	}
	var own *storage
	if e.pending != nil && ind == &e.pending.ind {
		own = e.pending
	}
	e.pending = nil
	e.admit(ind, own)
}

// admit puts ind into the population: appended while seeding, else in
// the oldest member's slot, whose storage — if the engine handed it out
// — becomes free for the next child.
func (e *Engine) admit(ind *Individual, own *storage) {
	if !e.Seeded() {
		e.pop = append(e.pop, ind)
		e.own = append(e.own, own)
		return
	}
	// Steady-state, delete-oldest replacement.
	if old := e.own[e.oldest]; old != nil {
		e.free = append(e.free, old)
	}
	e.pop[e.oldest], e.own[e.oldest] = ind, own
	e.oldest = (e.oldest + 1) % len(e.pop)
}

// Clone returns a deep copy of the individual, so migrated elites do
// not share mutable state (test genes, fitaddr sets) across islands.
func (ind *Individual) Clone() *Individual {
	c := &Individual{Fitness: ind.Fitness, NDT: ind.NDT}
	if ind.Test != nil {
		c.Test = ind.Test.Clone()
	}
	c.FitAddrs = make(map[memsys.Addr]bool, len(ind.FitAddrs))
	for a, v := range ind.FitAddrs {
		c.FitAddrs[a] = v
	}
	return c
}

// Elites returns deep copies of the k fittest population members,
// fittest first, ties broken by population slot so the selection is
// deterministic. Fewer than k are returned while the population is
// still seeding.
func (e *Engine) Elites(k int) []*Individual {
	if k <= 0 || len(e.pop) == 0 {
		return nil
	}
	idx := make([]int, len(e.pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return e.pop[idx[a]].Fitness > e.pop[idx[b]].Fitness
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]*Individual, 0, k)
	for _, i := range idx[:k] {
		out = append(out, e.pop[i].Clone())
	}
	return out
}

// Immigrate inserts migrant individuals into the population through the
// same delete-oldest ring that Feedback uses, so migrants immediately
// compete in tournament selection and recombine through the configured
// crossover path (the island model's exchange channel). Migrants are
// deep-copied by the sender; the engine keeps them in its population
// but never writes their tests or fitaddr sets, and defaults only a
// nil FitAddrs.
func (e *Engine) Immigrate(migrants []*Individual) {
	for _, ind := range migrants {
		if ind == nil {
			continue
		}
		if ind.FitAddrs == nil {
			ind.FitAddrs = map[memsys.Addr]bool{}
		}
		if e.pending != nil && (ind == &e.pending.ind || ind.Test == e.pending.test) {
			// The caller made a migrant of the pending test: it is
			// the caller's now.
			e.pending = nil
		}
		e.admit(ind, nil)
	}
}

// tournament picks the fittest of tournamentSize random members.
func (e *Engine) tournament() *Individual {
	best := e.pop[e.rng.Intn(len(e.pop))]
	for i := 1; i < e.ops.tournament; i++ {
		c := e.pop[e.rng.Intn(len(e.pop))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

// fitaddrFraction returns the fraction of memory operations guaranteed
// to be selected (Algorithm 1's fitaddr_fraction).
func fitaddrFraction(t *testgen.Test, fitaddrs map[memsys.Addr]bool) float64 {
	memOps, hits := 0, 0
	for _, n := range t.Nodes {
		if !n.Op.Kind.IsMemOp() {
			continue
		}
		memOps++
		if fitaddrs[n.Op.Addr] {
			hits++
		}
	}
	if memOps == 0 {
		return 0
	}
	return float64(hits) / float64(memOps)
}

// crossoverMutate is Algorithm 1, written into child: the selective
// crossover always inherits memory operations whose address is in the
// parent's fitaddrs, selects other nodes with matched probabilities,
// and pseudo-randomly regenerates slots neither parent claims (directed
// mutation), biased towards the parents' combined fitaddrs with
// probability PBFA.
func (e *Engine) crossoverMutate(child *testgen.Test, t1, t2 *Individual) {
	a1 := fitaddrFraction(t1.Test, t1.FitAddrs)
	a2 := fitaddrFraction(t2.Test, t2.FitAddrs)
	pSel1 := a1 + e.ops.pUSel - a1*e.ops.pUSel
	pSel2 := a2 + e.ops.pUSel - a2*e.ops.pUSel

	combined := e.combined[:0]
	for a := range t1.FitAddrs {
		combined = append(combined, a)
	}
	for a := range t2.FitAddrs {
		combined = append(combined, a)
	}
	// Deterministic order for reproducibility, each address once.
	slices.Sort(combined)
	combined = slices.Compact(combined)
	e.combined = combined

	copyTest(child, t1.Test)
	mutations := 0
	for i := range child.Nodes {
		n1 := t1.Test.Nodes[i]
		var select1 bool
		if n1.Op.Kind.IsMemOp() {
			select1 = e.rng.Float64() < e.ops.pUSel || t1.FitAddrs[n1.Op.Addr]
		} else {
			select1 = e.rng.Float64() < pSel1
		}
		n2 := t2.Test.Nodes[i]
		var select2 bool
		if n2.Op.Kind.IsMemOp() {
			select2 = e.rng.Float64() < e.ops.pUSel || t2.FitAddrs[n2.Op.Addr]
		} else {
			select2 = e.rng.Float64() < pSel2
		}
		switch {
		case !select1 && select2:
			child.Nodes[i] = n2
		case !select1 && !select2:
			mutations++
			if e.rng.Float64() < e.ops.pBFA && len(combined) > 0 {
				child.Nodes[i] = e.gen.RandomNode(combined)
			} else {
				child.Nodes[i] = e.gen.RandomNode(nil)
			}
		default:
			// Retain child[i] (from t1).
		}
	}
	if float64(mutations)/float64(len(child.Nodes)) < e.ops.pMut {
		e.mutate(child, combined)
	}
}

// singlePoint is the Std.XO baseline, written into child: a standard
// single-point crossover over the flat list, followed by per-node
// mutation.
func (e *Engine) singlePoint(child *testgen.Test, t1, t2 *Individual) {
	copyTest(child, t1.Test)
	cut := e.rng.Intn(len(child.Nodes) + 1)
	copy(child.Nodes[cut:], t2.Test.Nodes[cut:])
	e.mutate(child, nil)
}

// copyTest makes dst a copy of src in dst's own node storage.
func copyTest(dst, src *testgen.Test) {
	dst.Nodes = append(dst.Nodes[:0], src.Nodes...)
	dst.Layout, dst.Threads = src.Layout, src.Threads
}

// mutate randomizes nodes with probability PMut each, preserving slot
// positions (relative scheduling).
func (e *Engine) mutate(t *testgen.Test, constrained []memsys.Addr) {
	for i := range t.Nodes {
		if e.rng.Float64() < e.ops.pMut {
			if len(constrained) > 0 && e.rng.Float64() < e.ops.pBFA {
				t.Nodes[i] = e.gen.RandomNode(constrained)
			} else {
				t.Nodes[i] = e.gen.RandomNode(nil)
			}
		}
	}
}

// NormalizeNDT maps an NDT value into [0,1] against a running maximum,
// used by the Std.XO fitness blend (§5.2.1: "equal weighting for
// coverage and normalized NDT").
type NormalizeNDT struct {
	max float64
}

// Norm returns ndt normalized by the running maximum.
func (n *NormalizeNDT) Norm(ndt float64) float64 {
	if ndt > n.max {
		n.max = ndt
	}
	if n.max == 0 {
		return 0
	}
	return math.Min(1, ndt/n.max)
}
