package eval

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/bugs"
)

// tinyScale finishes in seconds: enough to exercise the fleet-sharded
// table drivers (including the shared litmus suite cache) under the
// race detector without reproducing the full tables.
func tinyScale(parallel int) Scale {
	return Scale{Samples: 1, Budget: 25, LitmusPasses: 1, Seed: 11, Parallel: parallel}
}

func tinySpecs() []GeneratorSpec {
	cols := Columns()
	return []GeneratorSpec{cols[4], cols[6]} // RAND (1KB) + diy-litmus
}

func tinyBugs(t *testing.T) []bugs.Bug {
	t.Helper()
	b, err := bugs.ByName("LQ+no-TSO")
	if err != nil {
		t.Fatal(err)
	}
	return []bugs.Bug{b}
}

// TestTable4ParallelMatchesSequential: sharding cells across workers
// must not change any cell, so the rendered tables are identical.
func TestTable4ParallelMatchesSequential(t *testing.T) {
	var seq, par bytes.Buffer
	if err := Table4(&seq, tinySpecs(), tinyBugs(t), tinyScale(1)); err != nil {
		t.Fatal(err)
	}
	if err := Table4(&par, tinySpecs(), tinyBugs(t), tinyScale(4)); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel Table 4 diverges from sequential:\n--- seq ---\n%s--- par ---\n%s", seq.String(), par.String())
	}
	if !strings.Contains(seq.String(), "LQ+no-TSO") {
		t.Errorf("table missing bug row:\n%s", seq.String())
	}
}

func TestTable5ParallelMatchesSequential(t *testing.T) {
	var seq, par bytes.Buffer
	steps := []int{10, 25}
	if err := Table5(&seq, tinySpecs(), tinyBugs(t), tinyScale(1), steps); err != nil {
		t.Fatal(err)
	}
	if err := Table5(&par, tinySpecs(), tinyBugs(t), tinyScale(4), steps); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel Table 5 diverges from sequential:\n--- seq ---\n%s--- par ---\n%s", seq.String(), par.String())
	}
	if !strings.Contains(seq.String(), "%") {
		t.Errorf("table missing percentages:\n%s", seq.String())
	}
}

// TestTable6Parallel: sharding does not change Table 6, and a column
// reads the same whichever other columns are requested with it.
func TestTable6Parallel(t *testing.T) {
	var seq, par bytes.Buffer
	specs := []GeneratorSpec{Columns()[4], Columns()[0]}
	if err := Table6(&seq, specs, tinyScale(1)); err != nil {
		t.Fatal(err)
	}
	if err := Table6(&par, specs, tinyScale(4)); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel Table 6 diverges from sequential:\n--- seq ---\n%s--- par ---\n%s", seq.String(), par.String())
	}
	for c, spec := range specs {
		var alone bytes.Buffer
		if err := Table6(&alone, []GeneratorSpec{spec}, tinyScale(1)); err != nil {
			t.Fatal(err)
		}
		if got, want := table6Column(alone.String(), 0), table6Column(seq.String(), c); !slices.Equal(got, want) {
			t.Errorf("column %q alone reads %q, beside another column %q", spec.Name, got, want)
		}
	}
}

// table6Column returns column c of a rendered Table 6: its header cell,
// then one cell per protocol row.
func table6Column(out string, c int) []string {
	var col []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		col = append(col, strings.Split(line, " | ")[c+1])
	}
	return col
}
