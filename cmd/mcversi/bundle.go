package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/scenario"
	"repro/internal/testgen"
	"repro/oracle"
)

// Bundle files: the description, and the failing iteration as a trace
// (checker violations only) that cmd/check decides on its own.
const (
	bundleFile = "bundle.json"
	traceFile  = "trace.mctrace"
)

// bundle is a self-contained repro of one sample's find. Spec is a
// one-item campaign set whose item 0 is the sample's campaign (its
// scenario, seed and every parameter); replaying re-runs it through
// test-run TestRun-1 and then runs Test as test-run TestRun. The rest
// describes what that test-run exposed.
type bundle struct {
	Scenario string    `json:"scenario"`
	Spec     core.Spec `json:"spec"`
	// Item and Seed are the sample's index in the campaign set it was
	// found in and its campaign seed (Spec's base seed).
	Item int   `json:"item"`
	Seed int64 `json:"seed"`
	// TestRun is 1-based, Iteration 0-based.
	TestRun   int    `json:"test_run"`
	Iteration int    `json:"iteration"`
	Source    string `json:"source"`
	Detail    string `json:"detail"`
	// Kind is a checker violation's constraint (uniproc, atomicity, ghb,
	// structural), Model the axiomatic model it was checked against.
	Kind  string `json:"kind,omitempty"`
	Model string `json:"model,omitempty"`
	// Trace names the bundle's trace file, Cycle the witness cycle's
	// events in it, and Procedure how the checker decided.
	Trace     string        `json:"trace,omitempty"`
	Cycle     []string      `json:"cycle,omitempty"`
	Procedure string        `json:"procedure,omitempty"`
	Test      *testgen.Test `json:"test"`
}

// reproduce re-runs the bundle's campaign with test as its failing
// test-run.
func (b *bundle) reproduce(test *testgen.Test) (core.Reproduction, error) {
	cfg, err := b.Spec.ItemConfig(0)
	if err != nil {
		return core.Reproduction{}, err
	}
	return core.Reproduce(cfg, b.TestRun, test)
}

// violationKind is a checker violation's constraint, "" for any other
// source: what a shrink step must keep beside the source.
func violationKind(v *host.Violation) string {
	var cv *checker.Violation
	if errors.As(v.Err, &cv) {
		return cv.Result.Kind.String()
	}
	return ""
}

// describe fills the bundle's outcome fields from a reproduction and
// returns the failing iteration's trace, if it has one.
func (b *bundle) describe(rep core.Reproduction) (*oracle.Trace, error) {
	v := rep.Violation
	if v == nil {
		return nil, fmt.Errorf("test-run %d passed", rep.TestRun)
	}
	b.Test = rep.Test
	b.Iteration = rep.Iterations - 1
	b.Source, b.Detail, b.Kind = v.Source.String(), v.Err.Error(), violationKind(v)
	b.Model, b.Trace, b.Cycle, b.Procedure = "", "", nil, ""
	var cv *checker.Violation
	if !errors.As(v.Err, &cv) || cv.Exec == nil {
		return nil, nil
	}
	x := cv.Exec
	for _, id := range cv.Result.Cycle {
		b.Cycle = append(b.Cycle, x.Event(id).String())
	}
	b.Model, b.Procedure = b.Spec.Scenarios[0].Model, cv.Procedure
	tr, err := oracle.TraceFromExecution(fmt.Sprintf("item%d-run%d-iter%d", b.Item, b.TestRun, b.Iteration), x)
	if err != nil {
		// A malformed execution (a structural violation) may not encode;
		// the bundle still replays.
		return nil, nil
	}
	b.Trace = traceFile
	return tr, nil
}

// write stores the bundle, and its trace when it has one, in dir.
func (b *bundle) write(dir string, tr *oracle.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false) // details and cycles read "a -> b"
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, bundleFile), data.Bytes(), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, traceFile))
	if err != nil {
		return err
	}
	if err := oracle.WriteTraces(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBundle loads the bundle in dir through decodeStrict: a bundle
// naming a retired knob must not replay at the default, and one with
// data appended is not the bundle that was written.
func readBundle(dir string) (*bundle, error) {
	data, err := os.ReadFile(filepath.Join(dir, bundleFile))
	if err != nil {
		return nil, err
	}
	var b bundle
	if err := decodeStrict(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	if len(b.Spec.Scenarios) != 1 || b.Spec.Samples != 1 || b.Test == nil || b.TestRun < 1 {
		return nil, fmt.Errorf("%s: not a bundle: want a one-item spec, a test and a test-run", dir)
	}
	if err := b.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return &b, nil
}

// writeBundles writes one bundle under dir for every sample of merged
// that found a bug, re-deriving each by re-running its campaign, and
// names what it wrote on w.
func writeBundles(dir string, spec core.Spec, merged fleet.Merged, w io.Writer) error {
	for i, r := range merged.Results {
		if !r.Found {
			continue
		}
		one := spec
		one.Scenarios = []scenario.Scenario{spec.ItemScenario(i)}
		one.Samples, one.BaseSeed = 1, spec.ItemSeed(i)
		b := &bundle{Scenario: r.Scenario, Spec: one, Item: i, Seed: one.BaseSeed, TestRun: r.TestRuns}
		rep, err := b.reproduce(nil)
		if err != nil {
			return fmt.Errorf("bundle of item %d: %w", i, err)
		}
		tr, err := b.describe(rep)
		if err != nil {
			return fmt.Errorf("bundle of item %d: %w", i, err)
		}
		if b.Source != r.Source || b.Detail != r.Detail {
			return fmt.Errorf("bundle of item %d: the re-run found %s: %s, the campaign %s: %s", i, b.Source, b.Detail, r.Source, r.Detail)
		}
		path := filepath.Join(dir, fmt.Sprintf("item%d", i))
		if err := b.write(path, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "mcversi: wrote bundle %s (%s at test-run %d, iteration %d)\n", path, b.Source, b.TestRun, b.Iteration)
	}
	return nil
}

// replay re-simulates the bundle in dir and reports whether its source
// and detail come back byte for byte; with shrink it then delta-debugs
// the test and writes the shrunk bundle beside the original. It returns
// the exit status: 0 on a match, 1 when the replay differs, 2 when the
// bundle cannot be read or run.
func replay(dir string, shrink bool, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mcversi:", err)
		return code
	}
	b, err := readBundle(dir)
	if err != nil {
		return fail(2, err)
	}
	rep, err := b.reproduce(b.Test)
	if err != nil {
		return fail(2, err)
	}
	got := *b
	if _, err := got.describe(rep); err != nil {
		return fail(1, fmt.Errorf("replay of %s: %w", dir, err))
	}
	fmt.Fprintf(stdout, "replay %s: %s test-run %d iteration %d: %s\n", dir, b.Scenario, b.TestRun, got.Iteration, got.Source)
	if got.Source != b.Source || got.Detail != b.Detail {
		fmt.Fprintf(stdout, "replay differs:\n  got  %s: %s\n  want %s: %s\n", got.Source, got.Detail, b.Source, b.Detail)
		return 1
	}
	fmt.Fprintln(stdout, "replay matches")
	if !shrink {
		return 0
	}

	small, err := shrinkTest(b, rep)
	if err != nil {
		return fail(2, err)
	}
	out := filepath.Join(filepath.Dir(filepath.Clean(dir)), filepath.Base(filepath.Clean(dir))+"-shrunk")
	sb := *b
	tr, err := sb.describe(small)
	if err != nil {
		return fail(2, err)
	}
	if err := sb.write(out, tr); err != nil {
		return fail(2, err)
	}
	fmt.Fprintf(stdout, "shrunk %d ops to %d (%d threads with ops): %s: %s\nwrote %s\n",
		b.Test.Size(), sb.Test.Size(), threadsWithOps(sb.Test), sb.Source, sb.Detail, out)
	return 0
}

// shrinkTest delta-debugs the bundle's test: drop whole threads first,
// then chunks of operations, halving the chunk down to single ones, and
// start over while a round cuts anything. A cut stays when the re-run
// test-run still fails from the same source with the same violation
// kind. rep is the replay of the full test; the result is the replay of
// the smallest test found.
func shrinkTest(b *bundle, rep core.Reproduction) (core.Reproduction, error) {
	source, kind := rep.Violation.Source, violationKind(rep.Violation)
	best := rep
	// try keeps nodes, the test without the cut, if it still fails alike.
	try := func(nodes []testgen.Node) (bool, error) {
		r, err := b.reproduce(&testgen.Test{Nodes: nodes, Layout: best.Test.Layout, Threads: best.Test.Threads})
		if err != nil || r.Violation == nil || r.Violation.Source != source || violationKind(r.Violation) != kind {
			return false, err
		}
		best = r
		return true, nil
	}
	for cut := true; cut; {
		cut = false
		for pid := 0; pid < best.Test.Threads; pid++ {
			rest := slices.DeleteFunc(slices.Clone(best.Test.Nodes), func(n testgen.Node) bool { return n.PID == pid })
			if len(rest) == len(best.Test.Nodes) || len(rest) == 0 {
				continue
			}
			kept, err := try(rest)
			if err != nil {
				return best, err
			}
			if kept {
				cut = true
			}
		}
		for size := len(best.Test.Nodes) / 2; size >= 1; size /= 2 {
			for i := 0; i < len(best.Test.Nodes) && len(best.Test.Nodes) > 1; {
				nodes := best.Test.Nodes
				kept, err := try(slices.Delete(slices.Clone(nodes), i, min(i+size, len(nodes))))
				if err != nil {
					return best, err
				}
				if kept {
					cut = true
				} else {
					i += size
				}
			}
		}
	}
	return best, nil
}

// threadsWithOps counts the threads t gives at least one operation.
func threadsWithOps(t *testgen.Test) int {
	seen := map[int]bool{}
	for _, n := range t.Nodes {
		seen[n.PID] = true
	}
	return len(seen)
}
