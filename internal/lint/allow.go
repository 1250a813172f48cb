package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix is the directive marker. Written as a standard Go "tool
// directive" comment: no space after //, so gofmt leaves it alone.
const allowPrefix = "mcvlint:allow"

// allowDirective is one parsed //mcvlint:allow comment.
type allowDirective struct {
	file string
	line int
	// analyzer restricts the directive to one analyzer's findings;
	// empty covers any analyzer.
	analyzer string
}

type allowSet struct {
	dirs []allowDirective
}

// covers reports whether a finding by analyzer at pos is silenced: a
// directive in the same file on the finding's line, or on the line
// directly above it (the conventional placement for statements and
// struct fields).
func (s allowSet) covers(pos token.Position, analyzer string) bool {
	for _, d := range s.dirs {
		if d.file != pos.Filename {
			continue
		}
		if d.line != pos.Line && d.line != pos.Line-1 {
			continue
		}
		if d.analyzer == "" || d.analyzer == analyzer {
			return true
		}
	}
	return false
}

// collectAllows extracts every //mcvlint:allow directive from files.
// A leading word that names one of analyzers scopes the directive;
// any other first word starts the reason. Directives missing a reason
// are returned as diagnostics instead of directives: an escape hatch
// without an explanation is a finding in its own right.
func collectAllows(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (allowSet, []Diagnostic) {
	knownAnalyzers := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		knownAnalyzers[a.Name] = true
	}
	var set allowSet
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				scope := ""
				if first, tail, ok := strings.Cut(rest, " "); ok && knownAnalyzers[first] {
					scope, rest = first, strings.TrimSpace(tail)
				} else if knownAnalyzers[rest] {
					// A directive that names an analyzer but gives no
					// reason is as unexplained as a bare one.
					scope, rest = rest, ""
				}
				if rest == "" {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Message:  "//mcvlint:allow needs a reason: //mcvlint:allow [analyzer] <why this is safe>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				set.dirs = append(set.dirs, allowDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: scope,
				})
			}
		}
	}
	return set, malformed
}
