package scenario

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestRegisteredScenariosValid(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d registered scenarios, want >= 6", len(names))
	}
	if !slices.IsSorted(names) {
		t.Errorf("names not sorted: %q", names)
	}
	seen := map[string]bool{}
	for _, s := range All() {
		if s.Name == "" {
			t.Errorf("nameless scenario %s", s)
		}
		if seen[s.Name] {
			t.Errorf("scenario name %q used twice", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			t.Errorf("registered scenario %s invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("scenario %s has no description", s.Name)
		}
		if _, err := s.Arch(); err != nil {
			t.Errorf("scenario %s arch: %v", s.Name, err)
		}
	}
	// Every model appears, and both protocols.
	ids := strings.Join(names, " ")
	for _, want := range []string{"mesi-sc", "mesi-tso", "mesi-pso", "mesi-rmo", "tsocc-tso", "tsocc-pso", "tsocc-rmo"} {
		if !strings.Contains(ids, want) {
			t.Errorf("registered scenarios missing %s (have %s)", want, ids)
		}
	}
}

// TestRegistryPinned: each registered scenario's identity and the
// machine it applies, whose cores realize its model. Memo scopes,
// Result.Scenario and the benchmark fingerprints key on these IDs, so
// none may move.
func TestRegistryPinned(t *testing.T) {
	want := map[string]string{
		"mesi-sc":   "MESI/SC+sc-stores",
		"mesi-tso":  "MESI/TSO",
		"mesi-pso":  "MESI/PSO+sb-ooo",
		"mesi-rmo":  "MESI/RMO+sb-ooo+lq-nosquash",
		"tsocc-tso": "TSO-CC/TSO",
		"tsocc-pso": "TSO-CC/PSO+sb-ooo",
		"tsocc-rmo": "TSO-CC/RMO+sb-ooo+lq-nosquash",
	}
	if got := Names(); len(got) != len(want) {
		t.Fatalf("registry holds %q, want the %d pinned scenarios", got, len(want))
	}
	for _, s := range All() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("scenario %s not pinned", s.Name)
			continue
		}
		if got := s.ID(); got != w {
			t.Errorf("%s: ID %q, want %q", s.Name, got, w)
		}
		cfg, err := s.Apply()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if want := (machine.Config{Protocol: s.Protocol, Model: s.Model}); cfg != want {
			t.Errorf("%s: Apply() %+v, want %+v", s.Name, cfg, want)
		}
	}
}

func TestValidateLegality(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		ok   bool
	}{
		{"tso-default", Scenario{Protocol: machine.MESI, Model: "TSO"}, true},
		{"sc-on-mesi", Scenario{Protocol: machine.MESI, Model: "SC"}, true},
		{"sc-on-tsocc", Scenario{Protocol: machine.TSOCC, Model: "SC"}, false},
		{"unknown-model", Scenario{Protocol: machine.MESI, Model: "POWER"}, false},
		{"unknown-protocol", Scenario{Protocol: "MOESI", Model: "TSO"}, false},
		{"unknown-bug", Scenario{Protocol: machine.MESI, Model: "TSO", Bugs: []string{"nope"}}, false},
		{"protocol-mismatched-bug", Scenario{Protocol: machine.MESI, Model: "TSO", Bugs: []string{"TSO-CC+compare"}}, false},
		{"pipeline-bug-anywhere", Scenario{Protocol: machine.TSOCC, Model: "TSO", Bugs: []string{"LQ+no-TSO"}}, true},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid scenario accepted", c.name)
		}
	}
}

func TestErrorsEnumerateAlternatives(t *testing.T) {
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "mesi-tso") {
		t.Errorf("ByName error does not list known names: %v", err)
	}
	err := (Scenario{Protocol: "MOESI", Model: "TSO"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "MESI") || !strings.Contains(err.Error(), "TSO-CC") {
		t.Errorf("protocol error does not enumerate protocols: %v", err)
	}
	err = (Scenario{Protocol: machine.MESI, Model: "POWER"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "RMO") {
		t.Errorf("model error does not enumerate models: %v", err)
	}
	err = (Scenario{Protocol: machine.MESI, Model: "TSO", Bugs: []string{"nope"}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "LQ+no-TSO") {
		t.Errorf("bug error does not enumerate bug names: %v", err)
	}
}

func TestIDCanonical(t *testing.T) {
	a := Scenario{Protocol: machine.MESI, Model: "PSO", Bugs: []string{"SQ+no-FIFO", "LQ+no-TSO"}}
	b := Scenario{Name: "other", Protocol: machine.MESI, Model: "PSO", Bugs: []string{"LQ+no-TSO", "SQ+no-FIFO"}}
	if a.ID() != b.ID() {
		t.Errorf("bug order changes ID: %q vs %q", a.ID(), b.ID())
	}
	d := a
	d.Model = "RMO"
	if a.ID() == d.ID() {
		t.Error("model not part of ID")
	}
}

func TestApply(t *testing.T) {
	s, err := ByName("mesi-rmo")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != machine.MESI {
		t.Errorf("protocol = %s, want MESI", cfg.Protocol)
	}
	if cfg.Model != "RMO" {
		t.Errorf("model = %q, want RMO", cfg.Model)
	}
	if cfg.Bugs.Any() {
		t.Error("bug-free scenario enabled bugs")
	}
	s.Bugs = []string{"LQ+no-TSO"}
	cfg, err = s.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Bugs.LQNoTSO {
		t.Error("bug not applied")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := ByName("tsocc-pso")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID() != s.ID() || back.Name != s.Name {
		t.Errorf("round trip changed scenario: %v vs %v", back, s)
	}
	// An incoherent scenario decodes; Validate is what refuses it.
	var bad Scenario
	if err := json.Unmarshal([]byte(`{"protocol":"TSO-CC","model":"SC"}`), &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Validate() == nil {
		t.Error("Validate accepted an incoherent scenario")
	}
}

// TestWireStability sweeps every registered scenario through the JSON
// wire format the campaign service ships specs in: marshaling is
// byte-deterministic, and a round trip preserves the scenario exactly —
// ID, name and all semantics-bearing fields. A scenario that changed
// identity in flight would silently verify the wrong contract on a
// remote worker.
func TestWireStability(t *testing.T) {
	for _, s := range All() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if string(data) != string(again) {
			t.Errorf("%s: wire encoding is not deterministic:\n  %s\n  %s", s.Name, data, again)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: re-parse: %v", s.Name, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: re-parsed scenario invalid: %v", s.Name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%s: round trip changed the scenario:\n  sent %+v\n  got  %+v", s.Name, s, back)
		}
		if back.ID() != s.ID() {
			t.Errorf("%s: ID changed in flight: %q vs %q", s.Name, back.ID(), s.ID())
		}
	}
}

func TestForBug(t *testing.T) {
	s := ForBug(machine.TSOCC, "TSO-CC+compare")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Model != "TSO" || len(s.Bugs) != 1 {
		t.Errorf("ForBug shape wrong: %+v", s)
	}
	if s2 := ForBug(machine.MESI, ""); len(s2.Bugs) != 0 {
		t.Errorf("bug-free ForBug carries bugs: %+v", s2)
	}
	// A bug injected into the protocol's TSO scenario is exactly ForBug's
	// target, so both spellings of a bug hunt run the same spec.
	for _, c := range []struct {
		name  string
		proto machine.Protocol
		bug   string
	}{{"mesi-tso", machine.MESI, "LQ+no-TSO"}, {"tsocc-tso", machine.TSOCC, "TSO-CC+compare"}} {
		named, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := named.Inject(c.bug), ForBug(c.proto, c.bug); !reflect.DeepEqual(got, want) {
			t.Errorf("%s.Inject(%q) = %+v, want %+v", c.name, c.bug, got, want)
		}
		if got := named.Inject(""); !reflect.DeepEqual(got, named) {
			t.Errorf("%s.Inject(\"\") = %+v, want it unchanged", c.name, got)
		}
	}
}
