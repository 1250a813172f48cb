package collective

import (
	"reflect"
	"testing"

	"repro/internal/memmodel"
)

// mapStore is a trivial in-RAM VerdictStore that counts traffic — the
// disk implementation lives in the store subpackage; these tests cover
// the memo-side seam.
type mapStore struct {
	m    map[Sig]Verdict
	gets int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[Sig]Verdict{}} }

func (s *mapStore) Get(key Sig) (Verdict, bool) {
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key Sig, v Verdict) {
	s.puts++
	s.m[key] = v
}

// countingCheck wraps the exact checker with a call counter.
func countingCheck(n *int) CheckFunc {
	return func(x *memmodel.Execution, arch memmodel.Arch) memmodel.Result {
		*n++
		return memmodel.NewChecker().Check(x, arch)
	}
}

// TestMemoStoreWriteThrough: a cold memo with a store computes once,
// writes the verdict through, and never consults the store again for
// the same scoped key (the RAM tier answers re-hits).
func TestMemoStoreWriteThrough(t *testing.T) {
	st := newMapStore()
	m := NewMemo()
	m.SetStore(st)
	calls := 0
	ops, co, rf := mpOps(102, 101) // valid MP outcome
	for i := 0; i < 3; i++ {
		x := replay(t, ops, co, rf)
		res, _ := m.CheckScopedVia("s1", Signature(x), x, memmodel.TSO{}, countingCheck(&calls))
		if !res.Valid {
			t.Fatalf("submission %d: %s", i, res.Detail)
		}
	}
	if calls != 1 {
		t.Fatalf("check calls = %d, want 1", calls)
	}
	if st.gets != 1 || st.puts != 1 {
		t.Fatalf("store traffic gets=%d puts=%d, want 1/1", st.gets, st.puts)
	}
	if d := m.Stats(); d.Durable != 0 {
		t.Fatalf("cold run Durable = %d, want 0", d.Durable)
	}
}

// TestMemoStoreWarmHit: a fresh memo sharing the store answers a valid
// signature from the durable tier without any check call, counts it in
// Durable, and returns a Result byte-identical to the cold compute.
func TestMemoStoreWarmHit(t *testing.T) {
	st := newMapStore()
	ops, co, rf := mpOps(102, 101)

	cold := NewMemo()
	cold.SetStore(st)
	x := replay(t, ops, co, rf)
	coldRes, _ := cold.CheckScopedVia("s1", Signature(x), x, memmodel.TSO{}, memmodel.NewChecker().Check)

	warm := NewMemo()
	warm.SetStore(st)
	calls := 0
	x2 := replay(t, ops, co, rf)
	warmRes, hit := warm.CheckScopedVia("s1", Signature(x2), x2, memmodel.TSO{}, countingCheck(&calls))
	if hit {
		t.Fatal("durable hit must not count as an in-RAM hit (Checks-Unique==Hits)")
	}
	if calls != 0 {
		t.Fatalf("warm valid hit ran %d checks, want 0", calls)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatalf("warm Result differs from cold:\n cold %+v\n warm %+v", coldRes, warmRes)
	}
	d := warm.Stats()
	if d.Durable != 1 || d.Unique != 1 || d.Hits != 0 {
		t.Fatalf("warm stats = %+v, want Durable=1 Unique=1 Hits=0", d)
	}
}

// TestMemoStoreWarmInvalidRederives: durable verdicts carry no witness,
// so a warm hit on an invalid signature re-runs the check against the
// submitted execution — the Result (Cycle, Detail) must match a direct
// check of that very execution.
func TestMemoStoreWarmInvalidRederives(t *testing.T) {
	st := newMapStore()
	ops, co, rf := mpOps(102, 0) // forbidden MP outcome

	cold := NewMemo()
	cold.SetStore(st)
	x := replay(t, ops, co, rf)
	if res, _ := cold.CheckScopedVia("s1", Signature(x), x, memmodel.TSO{}, memmodel.NewChecker().Check); res.Valid {
		t.Fatal("forbidden MP outcome accepted")
	}

	warm := NewMemo()
	warm.SetStore(st)
	calls := 0
	x2 := replay(t, permute(ops), co, rf) // same signature, new EventIDs
	got, _ := warm.CheckScopedVia("s1", Signature(x2), x2, memmodel.TSO{}, countingCheck(&calls))
	if calls != 1 {
		t.Fatalf("invalid durable hit ran %d checks, want 1 (witness re-derivation)", calls)
	}
	want := memmodel.NewChecker().Check(x2, memmodel.TSO{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm invalid Result is not the submitted execution's:\n got %+v\nwant %+v", got, want)
	}
	if d := warm.Stats(); d.Durable != 1 {
		t.Fatalf("Durable = %d, want 1", d.Durable)
	}
}

// TestMemoStoreScopeIsolation: the store is keyed by the same scoped
// fold as the memo, so a verdict recorded under one scope never answers
// another scope's query.
func TestMemoStoreScopeIsolation(t *testing.T) {
	st := newMapStore()
	ops, co, rf := mpOps(102, 101)

	m1 := NewMemo()
	m1.SetStore(st)
	x := replay(t, ops, co, rf)
	m1.CheckScopedVia("scopeA", Signature(x), x, memmodel.TSO{}, memmodel.NewChecker().Check)

	m2 := NewMemo()
	m2.SetStore(st)
	calls := 0
	x2 := replay(t, ops, co, rf)
	m2.CheckScopedVia("scopeB", Signature(x2), x2, memmodel.TSO{}, countingCheck(&calls))
	if calls != 1 {
		t.Fatalf("cross-scope query reused a verdict: calls = %d, want 1", calls)
	}
	if d := m2.Stats(); d.Durable != 0 {
		t.Fatalf("cross-scope Durable = %d, want 0", d.Durable)
	}
	if len(st.m) != 2 {
		t.Fatalf("store entries = %d, want one per scope", len(st.m))
	}
}

// TestScopedKeyMatchesMemoFold: ScopedKey is the documented external
// view of the memo's lookup fold — a record written under ScopedKey
// must be found by a campaign lookup with the same (scope, sig, arch).
func TestScopedKeyMatchesMemoFold(t *testing.T) {
	st := newMapStore()
	ops, co, rf := mpOps(102, 101)
	x := replay(t, ops, co, rf)
	sig := Signature(x)

	// Pre-seed the store externally, then query through a memo.
	st.m[ScopedKey("s1", sig, memmodel.TSO{})] = Verdict{Valid: true}
	m := NewMemo()
	m.SetStore(st)
	calls := 0
	res, _ := m.CheckScopedVia("s1", sig, x, memmodel.TSO{}, countingCheck(&calls))
	if calls != 0 || !res.Valid {
		t.Fatalf("pre-seeded verdict not found: calls=%d valid=%v", calls, res.Valid)
	}
	if d := m.Stats(); d.Durable != 1 {
		t.Fatalf("Durable = %d, want 1", d.Durable)
	}
}
