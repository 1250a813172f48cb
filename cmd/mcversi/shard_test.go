package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// runShards runs every shard of an n-way split of the campaign set
// args describe and returns the shard files in shard order.
func runShards(t *testing.T, dir string, n int, args ...string) []string {
	t.Helper()
	files := make([]string, n)
	for i := range files {
		files[i] = filepath.Join(dir, fmt.Sprintf("%d-of-%d.json", i, n))
		shard := []string{"-shard", fmt.Sprintf("%d/%d", i, n), "-shard-out", files[i]}
		if code, stdout, stderr := mcversiRun(append(slices.Clip(args), shard...)...); code != 0 || stdout != "" {
			t.Fatalf("shard %d/%d: exit %d, stdout %q (stderr %q)", i, n, code, stdout, stderr)
		}
	}
	return files
}

// mustRead returns a file's bytes.
func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// editSpec writes a copy of the JSON file at path, its "spec" object
// changed by edit, under dir and returns the copy's path.
func editSpec(t *testing.T, path, dir string, edit func(spec map[string]any)) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(mustRead(t, path), &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc["spec"].(map[string]any))
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(dir, "edited-*.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Name()
}

// TestShardMergeEquivalence: a campaign set split into 1, 2, 3 or one
// shard per item and merged in either file order prints the stdout of
// a local run and writes its -merged-out byte for byte. Every shard
// range is a pure function of (spec, i, N), so the split is invisible
// in the merge. Files that do not cover the set exactly once, that
// belong to another set, that are cut off or appended to, or whose
// spec names a scenario's relaxations or the guest barrier are refused,
// naming the file.
func TestShardMergeEquivalence(t *testing.T) {
	const items = 4
	// The GP budget outlasts the 100-test initial population, so the
	// engine breeds.
	budget := map[string]string{"rand": "20", "gp-all": "120"}
	set := func(gen string) []string {
		return []string{"-scenario", "mesi-tso,mesi-pso", "-gen", gen, "-mem", "1024",
			"-samples", strconv.Itoa(items / 2), "-budget", budget[gen], "-seed", "11", "-parallel", "2"}
	}
	shardsOf := map[string][]string{} // generator -> the files of its 3-way split
	for _, gen := range []string{"rand", "gp-all"} {
		dir := filepath.Join(t.TempDir(), gen) // outlives the subtest: the refusals read it
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		t.Run(gen, func(t *testing.T) {
			local := filepath.Join(dir, "local.json")
			code, want, stderr := mcversiRun(append(set(gen), "-merged-out", local)...)
			if code != 0 {
				t.Fatalf("local run: exit %d (stderr %q)", code, stderr)
			}
			wantBytes := mustRead(t, local)
			splits := []int{1, 2, 3, items}
			if testing.Short() && gen == "gp-all" {
				splits = []int{3} // the uneven split; the full run takes every split
			}
			for _, n := range splits {
				files := runShards(t, dir, n, set(gen)...)
				if n == 3 {
					shardsOf[gen] = files
				}
				for _, order := range []string{"forward", "reversed"} {
					if order == "reversed" {
						files = slices.Clone(files)
						slices.Reverse(files)
					}
					merged := filepath.Join(dir, fmt.Sprintf("merged-%d-%s.json", n, order))
					code, got, stderr := mcversiRun(append([]string{"-merge", "-merged-out", merged}, files...)...)
					if code != 0 {
						t.Fatalf("%d shards, %s: exit %d (stderr %q)", n, order, code, stderr)
					}
					if got != want {
						t.Errorf("%d shards, %s: stdout differs from the local run:\n--- local\n%s--- merged\n%s", n, order, want, got)
					}
					if data := mustRead(t, merged); string(data) != string(wantBytes) {
						t.Errorf("%d shards, %s: merged JSON differs from the local run's", n, order)
					}
				}
			}
		})
	}

	rand, gp := shardsOf["rand"], shardsOf["gp-all"]
	if rand == nil || gp == nil {
		t.Fatal("a generator's split did not run")
	}
	truncated := filepath.Join(t.TempDir(), "truncated.json")
	data := mustRead(t, rand[1])
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	appended := filepath.Join(t.TempDir(), "appended.json")
	if err := os.WriteFile(appended, []byte(string(mustRead(t, rand[1]))+"garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	relaxed := editSpec(t, rand[1], t.TempDir(), func(spec map[string]any) {
		spec["scenarios"].([]any)[1].(map[string]any)["relax"] = map[string]any{"NonFIFOSB": true}
	})
	guest := editSpec(t, rand[1], t.TempDir(), func(spec map[string]any) {
		spec["host"].(map[string]any)["Barrier"] = 1
	})
	for _, c := range []struct {
		name  string
		files []string
		blame string // the file stderr must name
		want  string
	}{
		{"gap", []string{rand[2], rand[0]}, rand[2], "are in no file"},
		{"last shard missing", []string{rand[0], rand[1]}, rand[1], "after its shard are in no file"},
		{"shard given twice", []string{rand[0], rand[1], rand[1], rand[2]}, rand[1], "overlaps"},
		{"another campaign set", []string{rand[0], gp[1], rand[2]}, gp[1], "campaign set differs"},
		{"truncated file", []string{rand[0], truncated, rand[2]}, truncated, "unexpected EOF"},
		{"trailing data", []string{rand[0], appended, rand[2]}, appended, "data after the JSON object"},
		{"scenario relaxations", []string{rand[0], relaxed, rand[2]}, relaxed, `unknown field "relax"`},
		{"guest barrier", []string{rand[0], guest, rand[2]}, guest, "Host.Barrier"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := mcversiRun(append([]string{"-merge"}, c.files...)...)
			if code != 1 || stdout != "" {
				t.Errorf("exit %d, stdout %q; want exit 1 and nothing printed", code, stdout)
			}
			if !strings.Contains(stderr, c.blame+": ") || !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not name %s with %q", stderr, c.blame, c.want)
			}
		})
	}
}

// TestMergeWritesBundles: -merge writes the repro bundles a local run
// of the same campaign set writes.
func TestMergeWritesBundles(t *testing.T) {
	hunt := []string{"-bug", "LQ+no-TSO", "-gen", "rand", "-mem", "1024", "-budget", "120", "-seed", "5", "-samples", "2"}
	dir := t.TempDir()
	local, merged := filepath.Join(dir, "local"), filepath.Join(dir, "merged")
	if code, _, stderr := mcversiRun(append(hunt, "-bundle", local)...); code != 0 {
		t.Fatalf("local run: exit %d (stderr %q)", code, stderr)
	}
	files := runShards(t, dir, 2, hunt...)
	if code, _, stderr := mcversiRun("-merge", "-bundle", merged, files[1], files[0]); code != 0 {
		t.Fatalf("merge: exit %d (stderr %q)", code, stderr)
	}
	want, err := filepath.Glob(filepath.Join(local, "item*", "*"))
	if err != nil || len(want) == 0 {
		t.Fatalf("local run wrote no bundle (%v)", err)
	}
	for _, path := range want {
		rel, _ := filepath.Rel(local, path)
		if string(mustRead(t, filepath.Join(merged, rel))) != string(mustRead(t, path)) {
			t.Errorf("merged %s differs from the local run's", rel)
		}
	}
}

// TestOutputFilesWrittenWhole: -merged-out and -shard-out open their
// file before the run, so an unwritable destination fails before any
// test-run, and a run that fails writes no file — -merge can never
// fold a partial shard.
func TestOutputFilesWrittenWhole(t *testing.T) {
	campaign := []string{"-gen", "rand", "-mem", "1024", "-samples", "2", "-budget", "3", "-progress"}
	missing := filepath.Join(t.TempDir(), "missing", "out.json")
	for _, out := range [][]string{
		{"-merged-out", missing},
		{"-shard", "0/2", "-shard-out", missing},
	} {
		code, stdout, stderr := mcversiRun(append(slices.Clip(campaign), out...)...)
		if code != 1 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 1 and nothing printed", out[len(out)-2], code, stdout)
		}
		// -progress narrates every sample and then the phase breakdown.
		if !strings.Contains(stderr, missing) || strings.Contains(stderr, "[fleet]") || strings.Contains(stderr, "[obs]") {
			t.Errorf("%s: stderr %q; want the path named before any test-run", out[len(out)-2], stderr)
		}
	}

	dir := t.TempDir()
	code, _, stderr := mcversiRun("-gen", "rand", "-mem", "1024", "-samples", "2",
		"-shard", "0/2", "-shard-out", filepath.Join(dir, "s.json"), "-timeout", "1ns")
	if code != 1 || !strings.Contains(stderr, "deadline exceeded") {
		t.Errorf("expired shard: exit %d, stderr %q; want exit 1 on the deadline", code, stderr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("expired shard left %v behind", entries)
	}
}
