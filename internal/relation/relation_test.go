package relation

import (
	"math/rand"
	"testing"
)

func TestAddHasLen(t *testing.T) {
	r := New()
	if r.Len() != 0 {
		t.Fatal("new relation not empty")
	}
	r.Add(1, 2)
	r.Add(1, 2) // duplicate
	r.Add(2, 3)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Has(1, 2) || !r.Has(2, 3) || r.Has(3, 1) {
		t.Fatal("Has inconsistent with Add")
	}
}

func TestSuccessorsSorted(t *testing.T) {
	r := New()
	r.Add(1, 5)
	r.Add(1, 2)
	r.Add(1, 9)
	got := r.Successors(1)
	want := []EventID{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

func TestAcyclicSimple(t *testing.T) {
	chain := New()
	chain.Add(0, 1)
	chain.Add(1, 2)
	chain.Add(2, 3)
	if _, ok := chain.AcyclicCheck(); !ok {
		t.Error("chain reported cyclic")
	}
	loop := New()
	loop.Add(0, 1)
	loop.Add(1, 2)
	loop.Add(2, 0)
	cycle, ok := loop.AcyclicCheck()
	if ok {
		t.Fatal("3-cycle reported acyclic")
	}
	if len(cycle) != 3 {
		t.Fatalf("cycle witness %v, want length 3", cycle)
	}
	// Each consecutive pair (and the wrap-around) must be an edge.
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		if !loop.Has(from, to) {
			t.Fatalf("cycle witness edge %d->%d not in relation", from, to)
		}
	}
}

func TestSelfLoop(t *testing.T) {
	r := New()
	r.Add(4, 4)
	if cycle, ok := r.AcyclicCheck(); ok || len(cycle) != 1 || cycle[0] != 4 {
		t.Fatalf("self loop: cycle=%v ok=%v", cycle, ok)
	}
}

// randomDAG builds an acyclic relation by only adding forward edges over
// a random permutation (a topological order by construction).
func randomDAG(rng *rand.Rand, n, edges int) *Relation {
	perm := rng.Perm(n)
	r := New()
	for i := 0; i < edges; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if perm[a] > perm[b] {
			a, b = b, a
		}
		r.Add(EventID(a), EventID(b))
	}
	return r
}

func TestAcyclicPropertyDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := randomDAG(rng, 2+rng.Intn(40), rng.Intn(120))
		if cycle, ok := r.AcyclicCheck(); !ok {
			t.Fatalf("DAG %d reported cyclic, witness %v, edges %v", i, cycle, r)
		}
	}
}

func TestCycleWitnessProperty(t *testing.T) {
	// Adding a back edge that closes a path must yield a valid witness.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n := 3 + rng.Intn(30)
		r := New()
		for j := 0; j+1 < n; j++ {
			r.Add(EventID(j), EventID(j+1))
		}
		// Random forward shortcuts keep it a DAG...
		for j := 0; j < n; j++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				r.Add(EventID(a), EventID(b))
			}
		}
		// ...then one back edge creates exactly one cyclic core.
		back := 1 + rng.Intn(n-1)
		r.Add(EventID(back), EventID(rng.Intn(back)))
		cycle, ok := r.AcyclicCheck()
		if ok {
			t.Fatalf("graph with back edge reported acyclic")
		}
		for k := range cycle {
			from, to := cycle[k], cycle[(k+1)%len(cycle)]
			if !r.Has(from, to) {
				t.Fatalf("witness edge %d->%d missing", from, to)
			}
		}
	}
}

func TestStringDeterministic(t *testing.T) {
	r := New()
	r.Add(2, 1)
	r.Add(0, 1)
	if got, want := r.String(), "{0->1, 2->1}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
