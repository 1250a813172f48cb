package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/scenario"
)

// testSpec is a CI-scale two-scenario spec.
func testSpec(gen GeneratorKind) Spec {
	mesiTSO, err := scenario.ByName("mesi-tso")
	if err != nil {
		panic(err)
	}
	mesiPSO, err := scenario.ByName("mesi-pso")
	if err != nil {
		panic(err)
	}
	cfg := scaledConfig(gen, machine.MESI, "", 1024, 8)
	return NewSpec(cfg, []scenario.Scenario{mesiTSO, mesiPSO}, 2, 11)
}

func TestSpecValidateAndItems(t *testing.T) {
	s := testSpec(GenRandom)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := s.Items(); got != 4 {
		t.Fatalf("Items() = %d, want 4", got)
	}
	if s.ItemScenario(0).Name != "mesi-tso" || s.ItemScenario(2).Name != "mesi-pso" {
		t.Errorf("item→scenario mapping wrong: %q, %q", s.ItemScenario(0).Name, s.ItemScenario(2).Name)
	}
	if s.ItemSeed(3) != SampleSeed(11, 3) {
		t.Errorf("item seed derivation diverged from SampleSeed")
	}

	bad := s
	bad.Samples = 0
	if err := bad.Validate(); err == nil {
		t.Error("samples=0 accepted")
	}
	bad = s
	bad.Scenarios = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty scenario list accepted")
	}
	bad = s
	bad.MaxTestRuns = 0
	if err := bad.Validate(); err == nil {
		t.Error("budget-free spec accepted")
	}
}

// TestSpecRoundTrip: marshal → ParseSpec must reproduce the spec
// exactly, and every item config must materialize identically on both
// sides — the property remote workers lean on.
func TestSpecRoundTrip(t *testing.T) {
	s := testSpec(GenGPAll)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("spec round trip diverged:\n  sent %+v\n  got  %+v", s, back)
	}
	for i := 0; i < s.Items(); i++ {
		a, err := s.ItemConfig(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.ItemConfig(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("item %d config diverged after round trip", i)
		}
	}
	if _, err := s.ItemConfig(s.Items()); err == nil {
		t.Error("out-of-range item accepted")
	}
}

// TestParseSpecRejectsUnknownFields: a retired knob or a misspelt field,
// at the top or nested, is an error naming it — never a campaign run at
// the default the field was meant to change.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	data, err := json.Marshal(testSpec(GenRandom))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		edit  func(doc map[string]any)
	}{
		{"delay_max", func(doc map[string]any) { doc["delay_max"] = 4 }},
		{"sampels", func(doc map[string]any) { doc["sampels"] = 9 }},
		{"Patiense", func(doc map[string]any) { doc["coverage"].(map[string]any)["Patiense"] = 1 }},
		{"cores", func(doc map[string]any) { doc["scenarios"].([]any)[0].(map[string]any)["cores"] = 4 }},
		// A scenario's relaxations follow from its model: even the set
		// its model implies is not spelled out.
		{"relax", func(doc map[string]any) {
			doc["scenarios"].([]any)[0].(map[string]any)["relax"] = map[string]any{"NonFIFOSB": false}
		}},
		{"Crossover", func(doc map[string]any) { doc["gp"].(map[string]any)["Crossover"] = 1 }},
		{"TournamentSize", func(doc map[string]any) { doc["gp"].(map[string]any)["TournamentSize"] = 2 }},
		{"PMut", func(doc map[string]any) { doc["gp"].(map[string]any)["PMut"] = 0.005 }},
	} {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(doc)
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(edited); err == nil || !strings.Contains(err.Error(), `"`+tc.field+`"`) {
			t.Errorf("%s: ParseSpec = %v, want an error naming the field", tc.field, err)
		}
	}
	if _, err := ParseSpec(append(data, "{}"...)); err == nil {
		t.Error("a spec with trailing data was accepted")
	}
}

// TestParseSpecRefusesHostOptions: the host options a spec carries are
// refused, not defaulted, when no campaign can run them: zero
// iterations, no watchdog, or a barrier other than the host-assisted
// one.
func TestParseSpecRefusesHostOptions(t *testing.T) {
	data, err := json.Marshal(testSpec(GenRandom))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(data); err != nil {
		t.Fatalf("unedited spec: %v", err)
	}
	for _, tc := range []struct {
		field string
		value any
	}{
		{"Iterations", 0},
		{"Iterations", -1},
		{"MaxTicksPerIteration", 0},
		{"Barrier", 1},
	} {
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc["host"].(map[string]any)[tc.field] = tc.value
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(edited); err == nil || !strings.Contains(err.Error(), "Host."+tc.field) {
			t.Errorf("%s: %v: ParseSpec = %v, want an error naming Host.%s", tc.field, tc.value, err, tc.field)
		}
	}
}

// TestSpecWireKeys pins every key of a spec's encoding, nested objects
// included: renaming a field of any struct the spec carries breaks the
// wire, so it must show here.
func TestSpecWireKeys(t *testing.T) {
	scen := scenario.Default()
	scen.Bugs = []string{"LQ+no-TSO"}
	data, err := json.Marshal(NewSpec(ScaledConfig(GenGPAll, scen, 1024), []scenario.Scenario{scen}, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", sub)
			}
		case []any:
			for _, sub := range v {
				walk(strings.TrimSuffix(prefix, ".")+"[].", sub)
			}
		}
	}
	walk("", doc)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	want := []string{
		"base_seed",
		"coverage", "coverage.InitialCutoff", "coverage.LowFitness", "coverage.Patience",
		"generator",
		"gp", "gp.PopulationSize",
		"host", "host.Barrier", "host.Iterations", "host.MaxTicksPerIteration",
		"max_test_runs", "mem_bytes", "samples",
		"scenarios", "scenarios[].bugs", "scenarios[].description", "scenarios[].model",
		"scenarios[].name", "scenarios[].protocol",
		"stride", "test_size", "threads",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("spec keys = %q\nwant %q", keys, want)
	}
}

// TestSpecItemMatchesDirectConfig: a spec item's campaign must produce
// the same Result as the hand-assembled config it was derived from.
func TestSpecItemMatchesDirectConfig(t *testing.T) {
	cfg := scaledConfig(GenRandom, machine.MESI, "", 1024, 6)
	scen, err := scenario.ByName("mesi-tso")
	if err != nil {
		t.Fatal(err)
	}
	spec := NewSpec(cfg, []scenario.Scenario{scen}, 1, 21)

	direct := cfg
	direct.Scenario = scen
	direct.Seed = SampleSeed(21, 0)
	want, err := RunCampaign(direct)
	if err != nil {
		t.Fatal(err)
	}

	icfg, err := spec.ItemConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCampaign(icfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spec item diverged from direct config:\n  want %+v\n  got  %+v", want, got)
	}
}
