// Package scenario makes the verification target a first-class, named,
// serializable value. The paper's reproduction hard-wires one target —
// the Table 2 machine checked against TSO — with its pieces scattered
// across machine.Config, bugs.Set and the recorder's model; a Scenario
// gathers them: coherence protocol, the axiomatic model to check
// against, and the injected bug set. The model also fixes the cores'
// orderings (package cpu): each model is realized by exactly one core,
// so a scenario cannot name a core its model forbids. A sorted table
// names the bundled scenarios and Validate refuses the pairings that
// cannot be checked.
package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bugs"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/memmodel"
)

// Scenario describes one complete verification target.
type Scenario struct {
	// Name is the registry key (empty for ad-hoc scenarios).
	Name string `json:"name,omitempty"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Protocol selects the coherence protocol.
	Protocol machine.Protocol `json:"protocol"`
	// Model names the axiomatic model to check against (SC, TSO, PSO,
	// RMO). The machine's cores realize the same model.
	Model string `json:"model"`
	// Bugs names the injected bugs (empty for a bug-free target).
	Bugs []string `json:"bugs,omitempty"`
}

// Arch returns the scenario's axiomatic model.
func (s Scenario) Arch() (memmodel.Arch, error) {
	return memmodel.ByName(s.Model)
}

// BugSet folds the scenario's bug names into an injection set.
func (s Scenario) BugSet() (bugs.Set, error) {
	if len(s.Bugs) == 0 {
		// Enable takes the set's address through a func value, so the
		// set escapes: a bug-free scenario skips that allocation.
		return bugs.Set{}, nil
	}
	var set bugs.Set
	for _, name := range s.Bugs {
		b, err := bugs.ByName(name)
		if err != nil {
			return bugs.Set{}, err
		}
		b.Enable(&set)
	}
	return set, nil
}

// Validate reports whether the scenario is internally coherent:
// protocol and model known, bug names valid and applicable to the
// protocol, and model SC only on the eager MESI protocol (TSO-CC's lazy
// self-invalidation only promises TSO).
func (s Scenario) Validate() error {
	valid := false
	for _, p := range machine.Protocols() {
		if s.Protocol == p {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("scenario %s: unknown protocol %q (valid: %s)",
			s.describe(), s.Protocol, machine.ProtocolNames())
	}
	if _, err := s.Arch(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.describe(), err)
	}
	for _, name := range s.Bugs {
		b, err := bugs.ByName(name)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		if b.Protocol != bugs.ProtoAny && string(b.Protocol) != string(s.Protocol) {
			return fmt.Errorf("scenario %s: bug %q applies to protocol %s, not %s",
				s.describe(), name, b.Protocol, s.Protocol)
		}
	}
	if s.Model == "SC" && s.Protocol != machine.MESI {
		return fmt.Errorf("scenario %s: model SC requires the MESI protocol (TSO-CC's lazy coherence only promises TSO)", s.describe())
	}
	return nil
}

// describe names the scenario for error messages.
func (s Scenario) describe() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s/%s", s.Protocol, s.Model)
}

// ID returns the canonical scenario identity: protocol, model, how the
// model's core departs from the Table 2 one (cpu.Orderings) and the
// sorted bug list. Two scenarios with equal IDs describe the same
// machine contract; collective-checking memo scopes key on it so
// verdicts never leak between different contracts.
func (s Scenario) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s%s", s.Protocol, s.Model, cpu.Orderings(s.Model))
	if len(s.Bugs) > 0 {
		names := append([]string(nil), s.Bugs...)
		sort.Strings(names)
		fmt.Fprintf(&b, "+bugs=%s", strings.Join(names, ","))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	if s.Name != "" {
		return fmt.Sprintf("%s (%s)", s.Name, s.ID())
	}
	return s.ID()
}

// Apply returns the machine the scenario describes: its protocol, cores
// realizing its model and its bug set on the Table 2 system.
// The caller sets the seed.
func (s Scenario) Apply() (machine.Config, error) {
	if err := s.Validate(); err != nil {
		return machine.Config{}, err
	}
	set, err := s.BugSet()
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{Protocol: s.Protocol, Model: s.Model, Bugs: set}, nil
}

// Inject returns s with the named bug injected ("" = s unchanged). The
// result is an ad-hoc target, no longer the registered one: its Name and
// Description are cleared. Validate refuses a bug of the other protocol.
func (s Scenario) Inject(bug string) Scenario {
	if bug == "" {
		return s
	}
	s.Name, s.Description = "", ""
	s.Bugs = []string{bug}
	return s
}

// ForBug is the paper's TSO machine under proto with one named bug
// injected ("" = bug-free): the (protocol, bug) pair the evaluation
// tables iterate over. For MESI and TSO-CC it equals the mesi-tso and
// tsocc-tso scenarios with the bug injected.
func ForBug(proto machine.Protocol, bug string) Scenario {
	return Scenario{Protocol: proto, Model: "TSO"}.Inject(bug)
}

// ByName returns the named scenario; the error lists the known names.
func ByName(name string) (Scenario, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the bundled scenario names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// All returns the bundled scenarios in Names order.
func All() []Scenario { return slices.Clone(registry) }

// Default returns the paper's scenario: the Table 2 MESI machine
// checked against TSO.
func Default() Scenario {
	s, err := ByName("mesi-tso")
	if err != nil {
		panic(err) // built-in; cannot happen
	}
	return s
}

// registry holds the bundled scenarios, sorted by name once.
var registry = func() []Scenario {
	r := []Scenario{
		{
			Name:        "mesi-sc",
			Description: "MESI with store-drain-before-commit cores, checked against SC",
			Protocol:    machine.MESI,
			Model:       "SC",
		},
		{
			Name:        "mesi-tso",
			Description: "the paper's target: Table 2 MESI machine checked against TSO",
			Protocol:    machine.MESI,
			Model:       "TSO",
		},
		{
			Name:        "mesi-pso",
			Description: "MESI with out-of-order store-buffer drain, checked against PSO",
			Protocol:    machine.MESI,
			Model:       "PSO",
		},
		{
			Name:        "mesi-rmo",
			Description: "MESI with non-FIFO stores and squash-free loads, checked against RMO",
			Protocol:    machine.MESI,
			Model:       "RMO",
		},
		{
			Name:        "tsocc-tso",
			Description: "lazy TSO-CC coherence checked against TSO",
			Protocol:    machine.TSOCC,
			Model:       "TSO",
		},
		{
			Name:        "tsocc-pso",
			Description: "TSO-CC with out-of-order store-buffer drain, checked against PSO",
			Protocol:    machine.TSOCC,
			Model:       "PSO",
		},
		{
			Name:        "tsocc-rmo",
			Description: "TSO-CC with non-FIFO stores and squash-free loads, checked against RMO",
			Protocol:    machine.TSOCC,
			Model:       "RMO",
		},
	}
	slices.SortFunc(r, func(a, b Scenario) int { return strings.Compare(a.Name, b.Name) })
	return r
}()
