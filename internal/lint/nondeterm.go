package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// timeBanned lists the package-level functions of "time" that read the
// host clock (or schedule against it). Everything a determinism-critical
// package derives from these can differ run to run, which is exactly
// what the byte-identical merge contract forbids. Conversions and
// constructors (time.Duration, time.Unix) are fine.
var timeBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// randAllowed lists the package-level functions of math/rand (and v2)
// that construct explicit generator instances instead of touching the
// package-global RNG. Instance methods (*rand.Rand) are always fine —
// they are seeded by the caller.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 sources.
	"NewPCG": true, "NewChaCha8": true,
}

// osEnvBanned lists the environment readers: ambient process state that
// makes a result depend on how the binary was launched.
var osEnvBanned = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// exempt lists the packages nondeterm leaves alone, each with every
// package below it. internal/service (lease TTLs, admission) runs on
// real wall clocks by design and delegates its determinism-critical
// work to fleet and core; the rest are commands, examples and tooling. Every other package of the
// module is determinism-critical, obs and host included: their clock
// laps carry //mcvlint:allow, which keeps every other clock read there
// a finding.
var exempt = []string{
	"repro/internal/service",
	"repro/internal/lint",
	"repro/benchmark",
	"repro/cmd",
	"repro/examples",
}

func critical(path string) bool {
	for _, e := range exempt {
		if path == e || strings.HasPrefix(path, e+"/") {
			return false
		}
	}
	return true
}

// NewNondeterm returns the nondeterm analyzer: in every package not
// exempt, any use — call or value — of a wall-clock read, the global
// math/rand RNG, or an environment read is a finding, and so is any
// mention of sync.Pool: a pool hands out what the collector has not yet
// emptied, so what its users allocate depends on when the collector
// ran. Test files are exempt (they time out, fake clocks, and benchmark
// freely).
func NewNondeterm() *Analyzer {
	a := &Analyzer{Name: "nondeterm"}
	a.Run = func(pass *Pass) {
		if !critical(pass.Path) {
			return
		}
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if tn, ok := pass.Info.Uses[sel.Sel].(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
					pass.Reportf(sel.Pos(), "sync.Pool in determinism-critical package %s: what it allocates would depend on when the collector ran; give the object an owner that keeps it", pass.Path)
					return true
				}
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // instance method: the caller owns the state
				}
				name := fn.Name()
				switch fn.Pkg().Path() {
				case "time":
					if timeBanned[name] {
						pass.Reportf(sel.Pos(), "time.%s reads the wall clock in determinism-critical package %s; inject the value or annotate //mcvlint:allow <reason>", name, pass.Path)
					}
				case "math/rand", "math/rand/v2":
					if !randAllowed[name] {
						pass.Reportf(sel.Pos(), "rand.%s uses the global RNG in determinism-critical package %s; use a seeded *rand.Rand", name, pass.Path)
					}
				case "os":
					if osEnvBanned[name] {
						pass.Reportf(sel.Pos(), "os.%s reads ambient process state in determinism-critical package %s; plumb configuration explicitly or annotate //mcvlint:allow <reason>", name, pass.Path)
					}
				}
				return true
			})
		}
	}
	return a
}

func isTestFile(pass *Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}
