package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mcversiRun runs the CLI in-process and returns its exit code and output.
func mcversiRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: flag combinations a campaign set cannot run are
// usage errors (exit 2) with nothing on stdout. Spec.Validate is what
// stops -samples -1 before it sizes the pool's result slice; -mem is
// checked before the configuration is built, whose MustLayout panics.
func TestUsageErrors(t *testing.T) {
	shardOut := filepath.Join(t.TempDir(), "s.json")
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnosis
	}{
		{"negative samples", []string{"-samples", "-1"}, "samples must be positive"},
		{"islands across a sweep", []string{"-islands", "-scenario", "mesi-tso,mesi-pso"}, "-islands"},
		{"unknown scenario", []string{"-scenario", "no-such"}, "no-such"},
		{"unknown generator", []string{"-gen", "bogus"}, "bogus"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
		{"stray argument", []string{"-scenario", "mesi-tso", "-gen", "rand", "-mem", "1024", "stray", "-budget", "3"}, `unexpected argument "stray"`},
		{"mem off the stride", []string{"-mem", "1000"}, "size 1000 must be a multiple of stride 16"},
		{"mem zero", []string{"-mem", "0"}, "-mem"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout must not be negative"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel must not be negative"},
		{"islands with zero migrate", []string{"-islands", "-migrate", "0"}, "-migrate must be positive"},
		{"islands with negative migrate", []string{"-islands", "-migrate", "-4"}, "-migrate must be positive"},
		{"islands with rand", []string{"-islands", "-gen", "rand"}, "-islands needs a GP generator"},
		{"shard i not below N", []string{"-shard", "3/3", "-shard-out", shardOut}, `-shard "3/3": want i/N`},
		{"shard of zero", []string{"-shard", "0/0", "-shard-out", shardOut}, `-shard "0/0": want i/N`},
		{"shard not i/N", []string{"-shard", "x", "-shard-out", shardOut}, `-shard "x": want i/N`},
		{"more shards than items", []string{"-samples", "2", "-shard", "0/3", "-shard-out", shardOut}, "3 shards of 2 items"},
		{"shard with islands", []string{"-shard", "0/2", "-shard-out", shardOut, "-islands"}, "-shard runs part of a campaign set"},
		{"shard with bundle", []string{"-shard", "0/2", "-shard-out", shardOut, "-bundle", t.TempDir()}, "-shard runs part of a campaign set"},
		{"shard with merged-out", []string{"-shard", "0/2", "-shard-out", shardOut, "-merged-out", shardOut + ".merged"}, "-shard runs part of a campaign set"},
		{"shard without shard-out", []string{"-shard", "0/2"}, "-shard needs -shard-out"},
		{"shard-out without shard", []string{"-shard-out", shardOut}, "-shard-out needs -shard"},
		{"merge with campaign flags", []string{"-merge", "-seed", "3", "-merged-out", shardOut, "-parallel", "2", shardOut}, "-merge takes only -merged-out and -bundle, not -parallel -seed"},
		{"merge of no files", []string{"-merge", "-merged-out", shardOut}, "-merge needs the shard files"},
		{"shrink without replay", []string{"-shrink"}, "-shrink needs -replay"},
		{"bundle with islands", []string{"-islands", "-bundle", t.TempDir()}, "-bundle is not available with -islands"},
		{"replay of no bundle", []string{"-replay", t.TempDir()}, "bundle.json"},
		{"replay with campaign flags", []string{"-replay", t.TempDir(), "-shrink", "-seed", "3", "-bundle", t.TempDir()}, "-replay takes only -shrink, not -bundle -seed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := mcversiRun(c.args...)
			if code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not mention %q", stderr, c.want)
			}
		})
	}
	if entries, _ := os.ReadDir(filepath.Dir(shardOut)); len(entries) != 0 {
		t.Errorf("usage errors left files behind: %v", entries)
	}
}

// TestBugHuntAndMergedOut: -protocol/-bug build a one-scenario set that
// finds the bug, reported under its detection channel, and -merged-out
// is an output option — it adds the file and changes nothing on stdout.
func TestBugHuntAndMergedOut(t *testing.T) {
	hunt := []string{"-bug", "LQ+no-TSO", "-gen", "rand", "-mem", "1024", "-budget", "120", "-seed", "5"}
	code, plain, stderr := mcversiRun(hunt...)
	if code != 0 {
		t.Fatalf("exit code = %d (stderr %q)", code, stderr)
	}
	if !strings.Contains(plain, "\n1/1 samples found a bug (") {
		t.Errorf("hunt did not report the find:\n%s", plain)
	}
	if !strings.Contains(plain, "\nfound by source: 1 mcm-violation, 0 protocol-error, 0 deadlock\n") {
		t.Errorf("hunt did not split the find by source:\n%s", plain)
	}
	if !strings.HasPrefix(plain, "scenario MESI/TSO+bugs=LQ+no-TSO:\n") {
		t.Errorf("output does not open with the scenario header:\n%s", plain)
	}

	file := filepath.Join(t.TempDir(), "merged.json")
	code, withOut, stderr := mcversiRun(append(hunt, "-merged-out", file)...)
	if code != 0 {
		t.Fatalf("-merged-out exit code = %d (stderr %q)", code, stderr)
	}
	if withOut != plain {
		t.Errorf("-merged-out changed stdout:\n--- without\n%s--- with\n%s", plain, withOut)
	}
	if data, err := os.ReadFile(file); err != nil || !bytes.HasPrefix(data, []byte(`{"results":[`)) {
		t.Errorf("merged file: err %v, content %.40q", err, data)
	}
}

// TestTimeoutReportsPartials: a run cut off by -timeout exits 1 after
// printing every sample's tally so far.
func TestTimeoutReportsPartials(t *testing.T) {
	code, stdout, stderr := mcversiRun("-gen", "rand", "-mem", "1024", "-samples", "2", "-parallel", "2",
		"-budget", "10000000", "-timeout", "200ms", "-progress")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "deadline exceeded") {
		t.Errorf("stderr does not name the deadline: %q", stderr)
	}
	if !strings.Contains(stderr, " stopped: ") {
		t.Errorf("-progress shows no stopped sample: %q", stderr)
	}
	if !strings.Contains(stdout, "  sample 1: ") || !strings.Contains(stdout, "\n0/2 samples found a bug") {
		t.Errorf("partial tallies not reported:\n%s", stdout)
	}
}

// TestTSOCCQuietAt1KB: a bug-free TSO-CC machine at the 1 KB layout
// reports no violation at the base seeds where it used to. Each seed
// tripped over a way a core could keep reading a value an acquire had
// made stale: a fill served before the acquire, an exclusive grant whose
// data was read without one, a writeback from an earlier owner taken as
// the current one's, or a store-buffer forward outliving its line.
func TestTSOCCQuietAt1KB(t *testing.T) {
	for _, seed := range []string{"1", "3", "4", "6"} {
		code, stdout, stderr := mcversiRun("-scenario", "tsocc-tso", "-mem", "1024", "-budget", "1000",
			"-parallel", "1", "-seed", seed)
		if code != 0 {
			t.Fatalf("seed %s: exit code = %d (stderr %q)", seed, code, stderr)
		}
		if !strings.Contains(stdout, "\n0/1 samples found a bug") {
			t.Errorf("seed %s: bug-free machine reports a bug:\n%s", seed, stdout)
		}
	}
}
