package main

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// TestSeedFlag: -seed 11 is the default scale, so the default output
// is unchanged; another seed moves every sample's seed, at either scale.
func TestSeedFlag(t *testing.T) {
	_, def, err := parse(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, eleven, err := parse([]string{"-seed", "11"}, io.Discard); err != nil || eleven != def {
		t.Fatalf("-seed 11 = %+v, %v; the default is %+v", eleven, err, def)
	}
	if def != eval.QuickScale() {
		t.Fatalf("default scale %+v, want eval's quick scale %+v", def, eval.QuickScale())
	}
	for _, args := range [][]string{{"-seed", "12"}, {"-full", "-seed", "12"}} {
		_, sc, err := parse(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != 12 {
			t.Fatalf("%v: base seed %d, want 12", args, sc.Seed)
		}
		for i := 0; i < sc.Samples; i++ {
			if core.SampleSeed(sc.Seed, i) == core.SampleSeed(def.Seed, i) {
				t.Errorf("%v: sample %d keeps the default's seed", args, i)
			}
		}
	}
}

// TestUsageErrors: what no table can run exits 2 before any campaign.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "7"},
		{"-parallel", "-1"},
		{"-seed", "x"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
