package fleet

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/collective/store"
	"repro/internal/core"
)

// TestDurableStoreColdWarm is the cross-campaign acceptance check: the
// same campaign run twice against one store directory produces
// byte-identical canonical merges, and the warm run answers a nonzero
// share of its unique signatures from disk (Dedupe.Durable).
func TestDurableStoreColdWarm(t *testing.T) {
	spec := shardSpec(core.GenRandom, 3, 8, 29, "mesi-tso")
	dir := filepath.Join(t.TempDir(), "verdicts")

	runOnce := func() ([]byte, Merged) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := LocalMerged(context.Background(), spec, Options{Collective: true, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := merged.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return data, merged
	}

	coldBytes, cold := runOnce()
	if cold.MemoDedupe.Checks == 0 {
		t.Fatal("cold run performed no collective checks; spec too small to exercise the store")
	}
	if cold.MemoDedupe.Durable != 0 {
		t.Fatalf("cold run reports %d durable hits from an empty store", cold.MemoDedupe.Durable)
	}

	warmBytes, warm := runOnce()
	if warm.MemoDedupe.Durable == 0 {
		t.Fatalf("warm run reports no durable hits (stats %+v)", warm.MemoDedupe)
	}
	if warm.MemoDedupe.Durable > warm.MemoDedupe.Unique {
		t.Fatalf("durable hits %d exceed unique signatures %d", warm.MemoDedupe.Durable, warm.MemoDedupe.Unique)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Fatal("warm merged CanonicalBytes differ from cold — the store changed results")
	}

	// A no-store reference pins the bytes a third way.
	ref, err := LocalMerged(context.Background(), spec, Options{Collective: true})
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, coldBytes) {
		t.Fatal("store-backed merge differs from storeless reference")
	}
}
