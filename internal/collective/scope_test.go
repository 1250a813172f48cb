package collective

import (
	"testing"

	"repro/internal/memmodel"
)

// TestMemoScopesIsolate: the same signature checked under the same
// model but different scenario scopes is computed once per scope —
// verdicts from one scenario can never answer another's query, even
// when the model name coincides.
func TestMemoScopesIsolate(t *testing.T) {
	memo := NewMemo()
	ops, co, rf := mpOps(102, 101)
	x := replay(t, ops, co, rf)
	sig := Signature(x)

	res1, hit1 := exactVia(memo, "MESI/TSO", sig, x, memmodel.TSO{})
	if hit1 {
		t.Fatal("first scoped check reported a hit")
	}
	// Same scope: a hit.
	if _, hit := exactVia(memo, "MESI/TSO", sig, x, memmodel.TSO{}); !hit {
		t.Fatal("same-scope recheck missed")
	}
	// Different scope, same model and signature: computed afresh.
	res2, hit2 := exactVia(memo, "MESI/TSO+sb-ooo", sig, x, memmodel.TSO{})
	if hit2 {
		t.Fatal("verdict leaked across scenario scopes")
	}
	if res1.Valid != res2.Valid {
		t.Fatalf("same execution diverged across scopes: %v vs %v", res1.Valid, res2.Valid)
	}
	// The empty scope is a scope like any other — also isolated from
	// the named ones.
	if _, hit := exactVia(memo, "", sig, x, memmodel.TSO{}); hit {
		t.Fatal("verdict leaked from a named scope into the empty scope")
	}
	st := memo.Stats()
	if st.Unique != 3 {
		t.Fatalf("unique entries = %d, want 3 (one per scope)", st.Unique)
	}
	if st.Checks != 4 || st.Hits != 1 {
		t.Fatalf("checks/hits = %d/%d, want 4/1", st.Checks, st.Hits)
	}
}

// TestMemoScopeAndArchIndependent: scope isolation composes with arch
// isolation — four (scope, arch) pairs are four entries.
func TestMemoScopeAndArchIndependent(t *testing.T) {
	memo := NewMemo()
	ops, co, rf := mpOps(102, 101)
	x := replay(t, ops, co, rf)
	sig := Signature(x)
	for _, scope := range []string{"a", "b"} {
		for _, arch := range []memmodel.Arch{memmodel.TSO{}, memmodel.PSO{}} {
			if _, hit := exactVia(memo, scope, sig, x, arch); hit {
				t.Fatalf("fresh (scope=%s, arch=%s) reported hit", scope, arch.Name())
			}
		}
	}
	if got := memo.Len(); got != 4 {
		t.Fatalf("entries = %d, want 4", got)
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
