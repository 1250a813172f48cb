package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/oracle"
)

// loadBundle reads the bundle in dir.
func loadBundle(t *testing.T, dir string) *bundle {
	t.Helper()
	b, err := readBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkTrace decides the bundle's trace the way cmd/check does, under
// the bundle's model, and returns the violation kind it names.
func checkTrace(t *testing.T, dir string, b *bundle) string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, b.Trace))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := trace.DecodeAll(f)
	if err != nil || len(traces) != 1 {
		t.Fatalf("bundle trace: %d traces, %v", len(traces), err)
	}
	c, err := oracle.NewChecker(b.Model, oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.CheckTrace(traces[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Fatalf("check finds the bundle's trace valid under %s", b.Model)
	}
	return v.Kind
}

// TestBundleReplayShrink: the LQ+no-TSO hunt's bundle replays its source
// and detail byte for byte, cmd/check names the bundle's violation kind
// on its trace, and the shrunk bundle holds a smaller test that fails
// the same way and replays in its turn. A bundle whose detail does not
// come back is a failed replay.
func TestBundleReplayShrink(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := mcversiRun("-bug", "LQ+no-TSO", "-gen", "rand", "-mem", "1024", "-budget", "120", "-seed", "5", "-bundle", dir)
	if code != 0 || !strings.Contains(stdout, "\n1/1 samples found a bug") {
		t.Fatalf("hunt: exit %d\n%s%s", code, stdout, stderr)
	}
	item := filepath.Join(dir, "item0")
	if !strings.Contains(stderr, "wrote bundle "+item) {
		t.Fatalf("no bundle reported on stderr: %q", stderr)
	}
	b := loadBundle(t, item)
	if b.Source != "mcm-violation" || b.Kind == "" || b.Trace == "" || len(b.Cycle) == 0 || !strings.Contains(b.Procedure, "exact check") || b.Seed != 5 {
		t.Fatalf("bundle lacks the checker find's parts: %+v", b)
	}
	if !strings.Contains(stdout, b.Detail) {
		t.Errorf("bundle detail %q is not the campaign's", b.Detail)
	}
	if got := checkTrace(t, item, b); got != b.Kind {
		t.Errorf("check names %s on the bundle's trace, the bundle %s", got, b.Kind)
	}

	code, stdout, stderr = mcversiRun("-replay", item, "-shrink")
	if code != 0 || !strings.Contains(stdout, "replay matches") {
		t.Fatalf("replay -shrink: exit %d\n%s%s", code, stdout, stderr)
	}
	shrunk := item + "-shrunk"
	s := loadBundle(t, shrunk)
	if s.Test.Size() >= b.Test.Size() || s.Source != b.Source || s.Kind != b.Kind {
		t.Fatalf("shrunk bundle: %d ops (%s, %s), original %d ops (%s, %s)", s.Test.Size(), s.Source, s.Kind, b.Test.Size(), b.Source, b.Kind)
	}
	if code, stdout, stderr = mcversiRun("-replay", shrunk); code != 0 {
		t.Fatalf("replay of the shrunk bundle: exit %d\n%s%s", code, stdout, stderr)
	}
	if got := checkTrace(t, shrunk, s); got != s.Kind {
		t.Errorf("check names %s on the shrunk trace, the bundle %s", got, s.Kind)
	}

	b.Detail += " (edited)"
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(item, bundleFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, _ = mcversiRun("-replay", item); code != 1 || !strings.Contains(stdout, "replay differs") {
		t.Errorf("replay of an edited bundle: exit %d\n%s", code, stdout)
	}
}

// TestBundleOfFirstTestRun: a find at test-run 1 has no prefix to re-run;
// its bundle is written and replays like any other, and refuses to
// replay once its spec names a field the spec does not have or a
// barrier other than the host's, or data follows its object.
func TestBundleOfFirstTestRun(t *testing.T) {
	dir := t.TempDir()
	mergedOut := filepath.Join(t.TempDir(), "merged.json")
	code, stdout, stderr := mcversiRun("-bug", "SQ+no-FIFO", "-gen", "rand", "-mem", "1024", "-budget", "120", "-seed", "32", "-bundle", dir, "-merged-out", mergedOut)
	if code != 0 || !strings.Contains(stdout, "FOUND (mcm-violation) after 1 test-runs") {
		t.Fatalf("hunt: exit %d\n%s%s", code, stdout, stderr)
	}
	if _, err := os.Stat(mergedOut); err != nil {
		t.Errorf("-merged-out next to -bundle: %v", err)
	}
	item := filepath.Join(dir, "item0")
	if b := loadBundle(t, item); b.TestRun != 1 || b.Iteration != 0 {
		t.Fatalf("bundle at test-run %d iteration %d, want 1 and 0", b.TestRun, b.Iteration)
	}
	if code, stdout, stderr = mcversiRun("-replay", item); code != 0 || !strings.Contains(stdout, "replay matches") {
		t.Fatalf("replay: exit %d\n%s%s", code, stdout, stderr)
	}

	// A field the bundle's spec does not have, such as a retired GP
	// rate, a misspelt budget or a scenario's relaxations, is a usage
	// error naming it; so is a barrier other than the host's.
	data, err := os.ReadFile(filepath.Join(item, bundleFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want string
		edit func(spec map[string]any)
	}{
		{`"PMutt"`, func(spec map[string]any) { spec["gp"].(map[string]any)["PMutt"] = 0.9 }},
		{`"max_test_run"`, func(spec map[string]any) { spec["max_test_run"] = 3 }},
		{`"relax"`, func(spec map[string]any) {
			spec["scenarios"].([]any)[0].(map[string]any)["relax"] = map[string]any{}
		}},
		{"Host.Barrier", func(spec map[string]any) { spec["host"].(map[string]any)["Barrier"] = 1 }},
	} {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(doc["spec"].(map[string]any))
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(item, bundleFile), edited, 0o644); err != nil {
			t.Fatal(err)
		}
		if code, stdout, stderr = mcversiRun("-replay", item); code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("replay of a bundle refused for %s: exit %d\n%s%s", tc.want, code, stdout, stderr)
		}
	}

	// Data after the bundle's object is refused too.
	if err := os.WriteFile(filepath.Join(item, bundleFile), []byte(string(data)+"garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr = mcversiRun("-replay", item); code != 2 || stdout != "" || !strings.Contains(stderr, "data after the JSON object") {
		t.Errorf("replay of a bundle with trailing data: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestProtocolErrorBundleReplays: the MESI+PUTX-Race pin at seed 17 ends
// in an L2 invalid transition; its bundle (no trace: there is no
// execution to decide) replays with the same detail.
func TestProtocolErrorBundleReplays(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := mcversiRun("-bug", "MESI+PUTX-Race", "-gen", "gp-all", "-mem", "8192", "-budget", "300", "-seed", "17", "-bundle", dir)
	if code != 0 || !strings.Contains(stdout, "FOUND (protocol-error)") {
		t.Fatalf("hunt: exit %d\n%s%s", code, stdout, stderr)
	}
	item := filepath.Join(dir, "item0")
	b := loadBundle(t, item)
	if b.Source != "protocol-error" || !strings.Contains(b.Detail, "invalid transition") || b.Trace != "" {
		t.Fatalf("protocol-error bundle: %+v", b)
	}
	code, stdout, stderr = mcversiRun("-replay", item)
	if code != 0 || !strings.Contains(stdout, "replay matches") {
		t.Fatalf("replay: exit %d\n%s%s", code, stdout, stderr)
	}
}
