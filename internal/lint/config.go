package lint

// This file pins the analyzers to this repository's package topology.
// The fixture tests construct analyzers with their own predicates; the
// mcvlint binary uses these defaults.

// criticalPackages are the determinism-critical packages: everything on
// the path from spec to CanonicalBytes, where a wall-clock read, a
// global-RNG draw, or an environment read can leak into canonical
// results. obs and host ARE listed — their clock laps are the
// legitimate exception and carry //mcvlint:allow annotations, which
// keeps every remaining clock read in those packages a finding.
//
// Deliberately absent:
//   - internal/service: the daemon half (lease TTLs, admission,
//     checkpoint mtimes) runs on real wall clocks by design; its
//     determinism-critical work is delegated to fleet/core.
//   - cmd/*, examples/, internal/lint: driver and tooling code.
var criticalPackages = map[string]bool{
	"repro":                            true,
	"repro/internal/bugs":              true,
	"repro/internal/checker":           true,
	"repro/internal/coherence":         true,
	"repro/internal/collective":        true,
	"repro/internal/collective/store":  true,
	"repro/internal/core":              true,
	"repro/internal/coverage":          true,
	"repro/internal/cpu":               true,
	"repro/internal/eval":              true,
	"repro/internal/fleet":             true,
	"repro/internal/gp":                true,
	"repro/internal/host":              true,
	"repro/internal/interconnect":      true,
	"repro/internal/litmus":            true,
	"repro/internal/machine":           true,
	"repro/internal/memmodel":          true,
	"repro/internal/memmodel/fastpath": true,
	"repro/internal/memsys":            true,
	"repro/internal/obs":               true,
	"repro/internal/relation":          true,
	"repro/internal/scenario":          true,
	"repro/internal/sim":               true,
	"repro/internal/stats":             true,
	"repro/internal/testgen":           true,
	"repro/internal/trace":             true,
	"repro/oracle":                     true,
}

// wirePackages hold structs that cross process boundaries as JSON:
// specs, shard results, service API types, and the
// stats/obs aggregates that ride shard results.
var wirePackages = map[string]bool{
	"repro/internal/collective": true,
	"repro/internal/core":       true,
	"repro/internal/fleet":      true,
	"repro/internal/obs":        true,
	"repro/internal/scenario":   true,
	"repro/internal/service":    true,
	"repro/internal/stats":      true,
	"repro/internal/trace":      true,
	"repro/oracle":              true,
}

// DefaultAnalyzers returns the suite wired to this repository's
// package lists — what cmd/mcvlint runs.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewNondeterm(func(path string) bool { return criticalPackages[path] }),
		NewMaprange(),
		NewMergefields(),
		NewWiretags(func(path string) bool { return wirePackages[path] }),
	}
}
