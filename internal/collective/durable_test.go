package collective

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/stats"
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

// countingCheck is exactCheck with a call counter.
func countingCheck(n *int, x *memmodel.Execution, arch memmodel.Arch) CheckFunc {
	return func() (memmodel.Result, error) {
		*n++
		return memmodel.NewChecker().Check(x, arch), nil
	}
}

// TestMemoStoreWriteThrough: a cold memo with a store computes once,
// writes the verdict through, and never consults the store again for
// the same key (the RAM tier answers re-hits).
func TestMemoStoreWriteThrough(t *testing.T) {
	st := newMapStore()
	m := NewMemo()
	m.SetStore(st)
	calls := 0
	ops, co, rf := mpOps(102, 101) // valid MP outcome
	for i := 0; i < 3; i++ {
		x := replay(t, ops, co, rf)
		res, _, _ := m.Check(Signature(x), memmodel.TSO{}, countingCheck(&calls, x, memmodel.TSO{}))
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
	coldRes, _, _ := cold.Check(Signature(x), memmodel.TSO{}, exactCheck(x, memmodel.TSO{}))

	warm := NewMemo()
	warm.SetStore(st)
	calls := 0
	x2 := replay(t, ops, co, rf)
	warmRes, hit, _ := warm.Check(Signature(x2), memmodel.TSO{}, countingCheck(&calls, x2, memmodel.TSO{}))
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
	if res, _, _ := cold.Check(Signature(x), memmodel.TSO{}, exactCheck(x, memmodel.TSO{})); res.Valid {
		t.Fatal("forbidden MP outcome accepted")
	}

	warm := NewMemo()
	warm.SetStore(st)
	calls := 0
	x2 := replay(t, permute(ops), co, rf) // same signature, new EventIDs
	got, _, _ := warm.Check(Signature(x2), memmodel.TSO{}, countingCheck(&calls, x2, memmodel.TSO{}))
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

// TestScopedKeyMatchesMemoFold: ScopedKey under the empty scope is the
// documented external view of the memo's key — a record written under
// ScopedKey("", sig, arch) must be found by a lookup of (sig, arch).
func TestScopedKeyMatchesMemoFold(t *testing.T) {
	st := newMapStore()
	ops, co, rf := mpOps(102, 101)
	x := replay(t, ops, co, rf)
	sig := Signature(x)

	// Pre-seed the store externally, then query through a memo.
	st.m[ScopedKey("", sig, memmodel.TSO{})] = Verdict{Valid: true}
	m := NewMemo()
	m.SetStore(st)
	calls := 0
	res, _, _ := m.Check(sig, memmodel.TSO{}, countingCheck(&calls, x, memmodel.TSO{}))
	if calls != 0 || !res.Valid {
		t.Fatalf("pre-seeded verdict not found: calls=%d valid=%v", calls, res.Valid)
	}
	if d := m.Stats(); d.Durable != 1 {
		t.Fatalf("Durable = %d, want 1", d.Durable)
	}
}

// TestMemoFailedCheckLeavesNothing: a check that fails — a cold key, a
// key whose stored verdict is invalid, a known-invalid key's witness
// re-derivation — leaves Len, Stats and the store as they were and
// returns its error, and the key's next submitter runs its own check.
func TestMemoFailedCheckLeavesNothing(t *testing.T) {
	errBuild := errors.New("the execution does not build")
	failing := func(n *int) CheckFunc {
		return func() (memmodel.Result, error) {
			*n++
			return memmodel.Result{}, errBuild
		}
	}
	st := newMapStore()
	ops, co, rf := mpOps(102, 0) // forbidden MP outcome
	x := replay(t, ops, co, rf)
	sig := Signature(x)
	m := NewMemo()
	m.SetStore(st)
	expect := func(when string, d stats.Dedupe, records int) {
		t.Helper()
		if got := m.Stats(); got != d || m.Len() != int(d.Unique) || len(st.m) != records || st.puts != records {
			t.Fatalf("%s: %+v, Len %d, %d records in %d puts; want %+v and %d records", when, got, m.Len(), len(st.m), st.puts, d, records)
		}
	}

	calls := 0
	for i := 0; i < 2; i++ {
		if _, _, err := m.Check(sig, memmodel.TSO{}, failing(&calls)); !errors.Is(err, errBuild) {
			t.Fatalf("cold failure %d: %v, want %v", i, err, errBuild)
		}
	}
	if calls != 2 || st.gets != 2 {
		t.Fatalf("two cold failures ran %d checks and %d store reads, want 2 and 2", calls, st.gets)
	}
	expect("after cold failures", stats.Dedupe{}, 0)

	// The next submitter decides the key, and a failed re-derivation of
	// its invalid witness moves nothing.
	if res, hit, err := m.Check(sig, memmodel.TSO{}, exactCheck(x, memmodel.TSO{})); err != nil || hit || res.Valid {
		t.Fatalf("deciding after failures: %+v, hit %v, %v", res, hit, err)
	}
	expect("decided", stats.Dedupe{Checks: 1, Unique: 1}, 1)
	if _, hit, err := m.Check(sig, memmodel.TSO{}, failing(&calls)); !errors.Is(err, errBuild) || !hit {
		t.Fatalf("failed re-derivation: hit %v, %v; want a hit failing with %v", hit, err, errBuild)
	}
	expect("after a failed re-derivation", stats.Dedupe{Checks: 1, Unique: 1}, 1)

	// A new memo over the store holding the invalid verdict: a failed
	// re-derivation is no durable hit.
	m = NewMemo()
	m.SetStore(st)
	if _, _, err := m.Check(sig, memmodel.TSO{}, failing(&calls)); !errors.Is(err, errBuild) {
		t.Fatalf("failure over a stored invalid verdict: %v, want %v", err, errBuild)
	}
	expect("after a failure over the store", stats.Dedupe{}, 1)
	if res, _, err := m.Check(sig, memmodel.TSO{}, exactCheck(x, memmodel.TSO{})); err != nil || res.Valid {
		t.Fatalf("deciding over the store: %+v, %v", res, err)
	}
	expect("durable hit", stats.Dedupe{Checks: 1, Unique: 1, Durable: 1}, 1)
}
