package lint_test

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

// This file is a stdlib-only stand-in for x/tools' analysistest: each
// testdata/<analyzer> directory is one fixture package, loaded like
// every package TestRepositoryClean checks, run through the analyzer
// under test, and diffed against `// want "regexp"` expectations
// attached to the offending lines. Lines silenced by //mcvlint:allow
// carry no want comment — if the directive fails to suppress, the
// unexpected diagnostic fails the test.

// loadFixture loads testdata/<dir> and presents it to the analyzers as
// import path path.
func loadFixture(t *testing.T, dir, path string) *lint.Package {
	t.Helper()
	pkgs := load(t, ".", "./testdata/"+dir)
	if len(pkgs) != 1 {
		t.Fatalf("testdata/%s: loaded %d packages, want 1", dir, len(pkgs))
	}
	pkgs[0].Path = path
	return pkgs[0]
}

// wantRe matches `// want "re"` and `// want ` + "`re`" + ` comments.
// An optional signed offset (`// want-2 ...`) anchors the expectation
// N lines away — for diagnostics on lines that cannot host a comment
// of their own (for example a bare //mcvlint:allow directive).
var wantRe = regexp.MustCompile("//\\s*want([+-][0-9]+)?\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants extracts the per-line expectations from the fixture's
// comments.
func collectWants(t *testing.T, pkg *lint.Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1])
				}
				raw := m[2]
				var pat string
				if raw[0] == '`' {
					pat = raw[1 : len(raw)-1]
				} else {
					var err error
					pat, err = strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("bad want comment %q: %v", c.Text, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line+offset)
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
	return wants
}

// checkFixture runs analyzers over testdata/<dir> and enforces the
// want expectations exactly: every diagnostic must match a want on its
// line, every want must be hit.
func checkFixture(t *testing.T, dir, path string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir, path)
	wants := collectWants(t, pkg)
	diags := lint.Run(pkg, analyzers)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func TestNondetermFixture(t *testing.T) {
	checkFixture(t, "nondeterm", "fixture/nd", lint.NewNondeterm())
}

// TestNondetermScope pins the exemption rule: the violating fixture is
// silent under each exempt package and the packages below it, and
// reported everywhere else in the module.
func TestNondetermScope(t *testing.T) {
	pkg := loadFixture(t, "nondeterm", "")
	for _, c := range []struct {
		path     string
		critical bool
	}{
		{"repro", true},
		{"repro/oracle", true},
		{"repro/internal/core", true},
		{"repro/internal/mergeguard", true},
		{"repro/internal/memmodel/exectest", true},
		{"repro/cmdline", true},
		{"repro/internal/service", false},
		{"repro/internal/lint", false},
		{"repro/benchmark", false},
		{"repro/cmd/mcversi", false},
		{"repro/examples/quickstart", false},
		{"repro/ci/tool", true},
	} {
		pkg.Path = c.path
		diags := lint.Run(pkg, []*lint.Analyzer{lint.NewNondeterm()})
		if got := len(diags) > 0; got != c.critical {
			t.Errorf("%s: nondeterm reported %d findings, want critical=%v", c.path, len(diags), c.critical)
		}
	}
}

func TestMaprangeFixture(t *testing.T) {
	checkFixture(t, "maprange", "fixture/mr", lint.NewMaprange())
}

func TestWiretagsFixture(t *testing.T) {
	checkFixture(t, "wiretags", "fixture/wt", lint.NewWiretags())
}

// TestAllowDirectiveFixture runs the whole suite: a directive scoped to
// an analyzer names one of the analyzers run.
func TestAllowDirectiveFixture(t *testing.T) {
	checkFixture(t, "allow", "fixture/al", lint.DefaultAnalyzers()...)
}
