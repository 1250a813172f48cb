package lint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

// load runs `go list -deps -export -json patterns...` in dir and
// type-checks every listed package outside the standard library from
// its GoFiles, importing each dependency from the export data the
// listing points at (compiled once into the build cache, so a warm
// load of the whole module takes well under a second; checking
// dependencies from source instead takes about twenty times longer).
func load(t *testing.T, dir string, patterns ...string) []*lint.Package {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var listing []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		listing = append(listing, p)
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	tc := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exports[path])
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	var pkgs []*lint.Package
	for _, p := range listing {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := lint.NewInfo()
		tpkg, err := tc.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("typechecking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &lint.Package{Fset: fset, Files: files, Types: tpkg, Info: info, Path: p.ImportPath})
	}
	return pkgs
}

// findings loads every package of the module at root and returns the
// suite's surviving diagnostics as "file:line:col: analyzer: message",
// file relative to root.
func findings(t *testing.T, root string) []string {
	t.Helper()
	pkgs := load(t, root, "./...")
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", root)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, lint.DefaultAnalyzers()) {
			pos := pkg.Fset.Position(d.Pos)
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = filepath.ToSlash(rel)
			}
			out = append(out, fmt.Sprintf("%s: %s: %s", pos, d.Analyzer, d.Message))
		}
	}
	return out
}

// TestRepositoryClean holds the module at zero unexplained findings: a
// real finding gets fixed, a deliberate one carries
// //mcvlint:allow <reason>. It runs under -short too, so every
// `go test ./...` enforces the lint.
func TestRepositoryClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings(t, root) {
		t.Error(f)
	}
}

// TestSeededModule runs the same loader over a throwaway module, so a
// loader that silently checks nothing cannot pass TestRepositoryClean
// unnoticed.
func TestSeededModule(t *testing.T) {
	const keys = `
func Keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		%s
	}
	%s
	return ks
}
`
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":             "module seeded\n\ngo 1.23\n",
		"dirty/dirty.go":     "package dirty\n" + fmt.Sprintf(keys, "ks = append(ks, k)", ""),
		"allowed/allowed.go": "package allowed\n" + fmt.Sprintf(keys, "//mcvlint:allow maprange caller sorts\n\t\tks = append(ks, k)", ""),
		"clean/clean.go":     "package clean\n\nimport \"sort\"\n" + fmt.Sprintf(keys, "ks = append(ks, k)", "sort.Strings(ks)"),
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(findings(t, dir), "\n")

	t.Run("seeded violation fails", func(t *testing.T) {
		if !regexp.MustCompile(`(?m)^dirty/dirty\.go:6:\d+: maprange: append to ks inside map iteration`).MatchString(got) {
			t.Errorf("the seeded maprange finding is missing:\n%s", got)
		}
	})
	t.Run("allow directive passes", func(t *testing.T) {
		if strings.Contains(got, "allowed/") {
			t.Errorf("//mcvlint:allow did not silence the finding:\n%s", got)
		}
	})
	t.Run("clean package passes", func(t *testing.T) {
		if strings.Contains(got, "clean/") {
			t.Errorf("a sorted collect reported a finding:\n%s", got)
		}
	})
}
