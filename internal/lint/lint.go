// Package lint is the repository's static analysis: a dependency-free
// equivalent of golang.org/x/tools/go/analysis sized to this repo's
// needs. It exists because the invariants the rest of the codebase is
// built on — a campaign is a pure function of (scenario, seed), so
// merges are byte-identical at any worker topology and shard files are
// wire-stable — are invisible to the Go compiler, and violations of
// them (map order leaking into output, untagged wire fields, a clock
// read in the campaign path) were caught by hand in review until now.
// The three analyzers here encode those
// contracts, and TestRepositoryClean runs them over every package of
// the module as part of `go test ./...`.
//
// Findings that are deliberate are silenced in source with
//
//	//mcvlint:allow <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; an optional leading analyzer name scopes the directive
// (`//mcvlint:allow nondeterm wall-clock lap, not part of canonical
// results`). A bare `//mcvlint:allow` with no reason is itself a
// diagnostic — unexplained escapes defeat the point.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and scoped
	// //mcvlint:allow directives. Lower-case, no spaces.
	Name string
	// Run inspects the package and reports findings through pass.
	Run func(pass *Pass)
}

// DefaultAnalyzers returns the suite TestRepositoryClean runs.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{NewNondeterm(), NewMaprange(), NewWiretags()}
}

// Pass carries one package's parsed and type-checked source through an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, comments included.
	Files []*ast.File
	// Pkg and Info are the type-checker's output for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package's import path.
	Path string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, attributed to the analyzer that produced
// it so scoped allow directives can target it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package bundles the inputs shared by every analyzer run.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Path  string
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies analyzers to pkg, filters findings through the
// //mcvlint:allow directives collected from the package's comments, and
// returns the surviving diagnostics in file/position order. Malformed
// directives (no reason) are appended as findings of the pseudo-analyzer
// "allow".
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			diags:    &diags,
		}
		a.Run(pass)
	}

	allows, malformed := collectAllows(pkg.Fset, pkg.Files, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.covers(pkg.Fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, malformed...)

	sort.Slice(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}
