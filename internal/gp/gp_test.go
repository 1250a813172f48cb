package gp

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
	"repro/internal/testgen"
)

func newEngine(t *testing.T, params Params, seed int64) (*Engine, *testgen.Generator) {
	t.Helper()
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: 48, Threads: 4, Layout: memsys.MustLayout(1024, 16),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	params.PopulationSize = 8
	e, err := New(params, gen, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return e, gen
}

func feedback(e *Engine, tst *testgen.Test, fitness, ndt float64, fitaddrs map[memsys.Addr]bool) {
	e.Feedback(&Individual{Test: tst, Fitness: fitness, NDT: ndt, FitAddrs: fitaddrs})
}

func TestParamValidation(t *testing.T) {
	gen, _ := testgen.NewGenerator(testgen.Config{
		Size: 8, Threads: 2, Layout: memsys.MustLayout(64, 16),
	}, rand.New(rand.NewSource(1)))
	if _, err := New(Params{PopulationSize: 1}, gen, rand.New(rand.NewSource(1))); err == nil {
		t.Error("population 1 accepted")
	}
}

func TestPaperParamsMatchTable3(t *testing.T) {
	if p := PaperParams(); p.PopulationSize != 100 || p.Crossover != SelectiveCrossover {
		t.Fatalf("PaperParams = %+v does not match Table 3", p)
	}
	if tournamentSize != 2 || pMut != 0.005 || pCrossover != 1.0 || pUSel != 0.2 || pBFA != 0.05 {
		t.Fatalf("tournament/PMut/PCrossover/PUSel/PBFA = %v/%v/%v/%v/%v does not match Table 3",
			tournamentSize, pMut, pCrossover, pUSel, pBFA)
	}
}

func TestSeedingPhase(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 2)
	for i := 0; i < 8; i++ {
		if e.Seeded() {
			t.Fatalf("seeded after %d members", i)
		}
		tst := e.Next()
		feedback(e, tst, 0.1, 1.0, nil)
	}
	if !e.Seeded() {
		t.Fatal("not seeded after PopulationSize feedbacks")
	}
}

func TestConstantNodeCountInvariant(t *testing.T) {
	for _, kind := range []CrossoverKind{SelectiveCrossover, SinglePointCrossover} {
		params := PaperParams()
		params.Crossover = kind
		e, _ := newEngine(t, params, 3)
		for i := 0; i < 8; i++ {
			feedback(e, e.Next(), float64(i)/10, 1.5, nil)
		}
		for i := 0; i < 200; i++ {
			child := e.Next()
			if len(child.Nodes) != 48 {
				t.Fatalf("%v: child has %d nodes, want 48", kind, len(child.Nodes))
			}
			feedback(e, child, 0.2, 1.5, nil)
		}
	}
}

// TestFitaddrNodesAlwaysInherited: Algorithm 1 guarantees memory
// operations on fitaddrs addresses are always selected from their
// parent — with PUSel = 0 and PBFA = 0 and no mutation, every slot where
// parent-1 has a fitaddr memory op must survive into the child.
func TestFitaddrNodesAlwaysInherited(t *testing.T) {
	e, gen := newEngine(t, PaperParams(), 4)
	e.ops.pUSel, e.ops.pBFA, e.ops.pMut = 0, 0, 0
	pool := gen.Pool()
	hot := pool[0]
	fit := map[memsys.Addr]bool{hot: true}
	// Seed the population with identical fitaddr sets.
	for i := 0; i < 8; i++ {
		feedback(e, e.Next(), 0.5, 2.0, fit)
	}
	parent := e.Population()[0].Test
	for trial := 0; trial < 100; trial++ {
		child := e.Next()
		for i, n := range parent.Nodes {
			if n.Op.Kind.IsMemOp() && n.Op.Addr == hot {
				if child.Nodes[i] != n {
					t.Fatalf("trial %d: fitaddr node at slot %d not inherited", trial, i)
				}
			}
		}
		feedback(e, child, 0.5, 2.0, fit)
	}
}

// TestUnselectedSlotsMutate: with PUSel = 0 and empty fitaddrs, no node
// is ever selected, so every slot must be regenerated (Algorithm 1's
// directed mutation path) — children differ from parents almost surely.
func TestUnselectedSlotsMutate(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 5)
	e.ops.pUSel = 0
	for i := 0; i < 8; i++ {
		feedback(e, e.Next(), 0.5, 1.0, nil)
	}
	parent := e.Population()[0].Test
	child := e.Next()
	same := 0
	for i := range parent.Nodes {
		if child.Nodes[i] == parent.Nodes[i] {
			same++
		}
	}
	if same == len(parent.Nodes) {
		t.Fatal("child identical to parent despite full regeneration")
	}
}

func TestDeleteOldestReplacement(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 6)
	var seeds []*testgen.Test
	for i := 0; i < 8; i++ {
		tst := e.Next()
		seeds = append(seeds, tst)
		feedback(e, tst, 1.0, 1.0, nil) // high fitness: selection loves them
	}
	// The first replacement must evict population slot 0 (the oldest),
	// regardless of its fitness.
	child := e.Next()
	feedback(e, child, 0.0, 1.0, nil)
	if e.Population()[0].Test != child {
		t.Fatal("delete-oldest did not replace slot 0")
	}
	if e.Population()[1].Test != seeds[1] {
		t.Fatal("slot 1 unexpectedly replaced")
	}
}

func TestTournamentPrefersFitter(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 7)
	// Tournament draws with replacement; 200 draws over 8 members make
	// missing the best member astronomically unlikely (and the rng is
	// seeded, so the test is deterministic).
	e.ops.tournament = 200
	for i := 0; i < 8; i++ {
		fit := 0.0
		if i == 3 {
			fit = 10.0
		}
		feedback(e, e.Next(), fit, 1.0, nil)
	}
	best := e.Population()[3]
	if got := e.tournament(); got != best {
		t.Fatalf("full tournament picked fitness %v, want the best member", got.Fitness)
	}
}

func TestFitaddrFraction(t *testing.T) {
	tst := &testgen.Test{
		Threads: 2,
		Nodes: []testgen.Node{
			{PID: 0, Op: testgen.Op{Kind: testgen.OpWrite, Addr: 0x100}},
			{PID: 0, Op: testgen.Op{Kind: testgen.OpRead, Addr: 0x200}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpDelay, Delay: 1}},
			{PID: 1, Op: testgen.Op{Kind: testgen.OpRMW, Addr: 0x100}},
		},
	}
	fit := map[memsys.Addr]bool{0x100: true}
	if got := fitaddrFraction(tst, fit); got != 2.0/3.0 {
		t.Fatalf("fitaddrFraction = %v, want 2/3", got)
	}
	if got := fitaddrFraction(&testgen.Test{}, fit); got != 0 {
		t.Fatalf("empty test fraction = %v, want 0", got)
	}
}

func TestNormalizeNDT(t *testing.T) {
	var n NormalizeNDT
	if n.Norm(0) != 0 {
		t.Error("Norm(0) != 0 with empty max")
	}
	if n.Norm(2.0) != 1.0 {
		t.Error("first value should normalize to 1")
	}
	if got := n.Norm(1.0); got != 0.5 {
		t.Errorf("Norm(1.0) = %v, want 0.5", got)
	}
	if n.Norm(4.0) != 1.0 {
		t.Error("new max should normalize to 1")
	}
}

func TestDeterministicEvolution(t *testing.T) {
	run := func() []testgen.Node {
		e, _ := newEngine(t, PaperParams(), 9)
		for i := 0; i < 8; i++ {
			feedback(e, e.Next(), float64(i%3), 1.2, nil)
		}
		var last *testgen.Test
		for i := 0; i < 20; i++ {
			last = e.Next()
			feedback(e, last, 0.4, 1.3, nil)
		}
		return last.Nodes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("evolution diverged across identical seeds")
		}
	}
}

func TestElitesOrderAndCopy(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 31)
	for i := 0; i < 8; i++ {
		feedback(e, e.Next(), float64(i%4), 1.0, nil)
	}
	elites := e.Elites(3)
	if len(elites) != 3 {
		t.Fatalf("Elites(3) = %d individuals", len(elites))
	}
	for i := 1; i < len(elites); i++ {
		if elites[i].Fitness > elites[i-1].Fitness {
			t.Fatalf("elites not fitness-sorted: %v before %v", elites[i-1].Fitness, elites[i].Fitness)
		}
	}
	if elites[0].Fitness != 3 {
		t.Fatalf("top elite fitness = %v, want 3", elites[0].Fitness)
	}
	// Deep copy: mutating the elite must not touch the population.
	for _, ind := range e.Population() {
		if ind.Test == elites[0].Test {
			t.Fatal("Elites returned a shared Test pointer")
		}
	}
	elites[0].FitAddrs[memsys.Addr(0xdead)] = true
	for _, ind := range e.Population() {
		if ind.FitAddrs[memsys.Addr(0xdead)] {
			t.Fatal("Elites returned a shared FitAddrs map")
		}
	}
	if got := e.Elites(100); len(got) != 8 {
		t.Fatalf("Elites(100) = %d, want population size 8", len(got))
	}
	if got := e.Elites(0); got != nil {
		t.Fatal("Elites(0) should be nil")
	}
}

func TestImmigrateReplacesOldest(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 32)
	for i := 0; i < 8; i++ {
		feedback(e, e.Next(), 0.1, 1.0, nil)
	}
	migrant := &Individual{Test: e.Next(), Fitness: 9.9}
	e.Immigrate([]*Individual{migrant, nil})
	if e.PopulationSize() != 8 {
		t.Fatalf("population grew to %d on immigration", e.PopulationSize())
	}
	found := false
	for _, ind := range e.Population() {
		if ind == migrant {
			found = true
			if ind.FitAddrs == nil {
				t.Fatal("migrant FitAddrs not defaulted")
			}
		}
	}
	if !found {
		t.Fatal("migrant not inserted into population")
	}
	// Migrants must be reachable through selection: the 9.9 fitness
	// should win every tournament.
	if best := e.Elites(1); best[0].Fitness != 9.9 {
		t.Fatalf("top fitness after immigration = %v, want 9.9", best[0].Fitness)
	}
}

func TestImmigrateWhileSeeding(t *testing.T) {
	e, _ := newEngine(t, PaperParams(), 33)
	feedback(e, e.Next(), 0.1, 1.0, nil)
	e.Immigrate([]*Individual{{Test: e.Next(), Fitness: 1.0}})
	if e.PopulationSize() != 2 {
		t.Fatalf("population = %d, want 2 (append while seeding)", e.PopulationSize())
	}
	if e.Seeded() {
		t.Fatal("prematurely seeded")
	}
}

func TestIndividualClone(t *testing.T) {
	orig := &Individual{Fitness: 1.5, NDT: 2.0, FitAddrs: map[memsys.Addr]bool{3: true}}
	c := orig.Clone()
	if c.Fitness != 1.5 || c.NDT != 2.0 || !c.FitAddrs[3] {
		t.Fatalf("clone lost fields: %+v", c)
	}
	c.FitAddrs[4] = true
	if orig.FitAddrs[4] {
		t.Fatal("clone shares FitAddrs")
	}
	if c.Test != nil {
		t.Fatal("nil Test cloned into non-nil")
	}
}

// TestCallerStorageNeverWritten: tests and fitaddr maps a caller passes
// in Individuals it built — even tests Next returned — keep their
// contents after they leave the population, while Pending's Individuals
// hand their storage to later children.
func TestCallerStorageNeverWritten(t *testing.T) {
	e, gen := newEngine(t, PaperParams(), 12)
	fit := map[memsys.Addr]bool{gen.Pool()[0]: true}
	var fed []*testgen.Test
	var snaps [][]testgen.Node
	for i := 0; i < 40; i++ {
		tst := e.Next()
		fed = append(fed, tst)
		snaps = append(snaps, append([]testgen.Node(nil), tst.Nodes...))
		feedback(e, tst, float64(i%5), 1.5, fit)
	}
	for i, tst := range fed {
		for j := range tst.Nodes {
			if tst.Nodes[j] != snaps[i][j] {
				t.Fatalf("caller's test %d was written at slot %d", i, j)
			}
		}
	}
	if len(fit) != 1 || !fit[gen.Pool()[0]] {
		t.Fatalf("caller's fitaddr map was written: %v", fit)
	}

	// Pending's Individuals: once the ring evicts one (the ninth
	// evicts the first), the next child is written into its test.
	owned := map[*testgen.Test]bool{}
	for i := 0; i < 9; i++ {
		owned[e.Next()] = true
		ind := e.Pending()
		ind.Fitness, ind.FitAddrs[gen.Pool()[1]] = 0.5, true
		e.Feedback(ind)
	}
	if child := e.Next(); !owned[child] {
		t.Fatal("the child after an evicted Pending Individual got new storage")
	}
	if ind := e.Pending(); len(ind.FitAddrs) != 0 {
		t.Fatalf("a recycled fitaddr set arrives with %v", ind.FitAddrs)
	}
}
