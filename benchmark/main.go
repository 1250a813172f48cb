// Command benchmark is the repository's measuring instrument: five
// named workloads over the generate → simulate → check → merge loop,
// end-to-end metrics measured with tracing off, and a separate traced
// pass that attributes the time to layers. BENCHMARK.json at the
// repository root names this program, its workloads and its metrics;
// README.md in this directory explains how to read them.
//
//	go run ./benchmark -seed 1                    # every workload, both passes
//	go run ./benchmark -workload sweep-fast -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json     # apply each metric's bound
//	go run ./benchmark -selfcheck                 # the set twice, must agree
//
// Every input derives from -seed, every output is checked, and failed
// operations are counted, never fatal. It claims no gain: later perf and
// simplicity issues are measured with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all, both passes)")
		seed         = flag.Int64("seed", 1, "seed every input derives from")
		seconds      = flag.Float64("seconds", 10, "how long each pass measures")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer traced pass")
		outDir       = flag.String("out", ".bench_out", "directory for the report, span files and scratch stores")
		compare      = flag.Bool("compare", false, "compare two report files given as arguments: A.json B.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole set twice and require agreement within the bounds")
	)
	flag.Parse()

	// Pin the parallelism so worker counts mean the same on any host:
	// never more goroutines doing work than min(nproc, 2).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := run(*workloadName, *seed, *seconds, *trace, *outDir, *compare, *selfcheck, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace int, outDir string, compare, selfcheck bool, args []string) error {
	b := budget{Seconds: seconds, MinReps: 3}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(args[0], args[1])
	case selfcheck:
		return selfCheck(seed, fullSizes, b, outDir)
	case workloadName != "":
		w, ok := workloadByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		return runOne(w, seed, fullSizes, b, trace == 1, outDir)
	default:
		rep, err := runSet(seed, fullSizes, b, outDir)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("report-seed%d.json", seed))
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", path)
		if rep.failed() > 0 {
			return fmt.Errorf("%d failed ops", rep.failed())
		}
		return nil
	}
}

// report is one run of the whole set on one host at one seed.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func (r report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// scratch returns a clean scratch directory for stores and removes it
// when done.
func scratch(outDir string) (string, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// runSet runs every workload, end-to-end pass then traced pass, prints
// every metric by name with its unit and writes one span file per
// workload.
func runSet(seed int64, sz sizes, b budget, outDir string) (report, error) {
	rep := report{Host: readHost(), Seed: seed, Seconds: b.Seconds}
	rep.Host.print()
	dir, cleanup, err := scratch(outDir)
	if err != nil {
		return rep, err
	}
	defer cleanup()
	for _, w := range workloads {
		res, err := measureEndToEnd(w, seed, sz, b, dir)
		if err != nil {
			return rep, err
		}
		log := newSpanLog()
		layers, err := measurePerLayer(w, seed, sz, b, dir, log)
		if err != nil {
			return rep, err
		}
		res.Attempted += layers.Attempted
		res.Failed += layers.Failed
		res.Notes = append(res.Notes, layers.Notes...)
		res.PerLayer = layers.PerLayer
		res.TracedFingerprint = layers.TracedFingerprint
		if layers.Fingerprint != res.Fingerprint {
			res.Failed = res.Attempted
			res.Notes = append(res.Notes, "traced pass fingerprint differs from the end-to-end pass")
		}
		printResult(res)
		if err := writeSpans(log, w, seed, outDir); err != nil {
			return rep, err
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

// runOne is the driver's entry: one workload, one pass, and as the last
// line of standard output one JSON object with exactly the keys correct,
// attempted, failed and metrics.
func runOne(w workload, seed int64, sz sizes, b budget, traced bool, outDir string) error {
	readHost().print()
	dir, cleanup, err := scratch(outDir)
	if err != nil {
		return err
	}
	defer cleanup()
	var (
		res  workloadResult
		vals map[string]metricValue
		defs []metricDef
	)
	if traced {
		log := newSpanLog()
		if res, err = measurePerLayer(w, seed, sz, b, dir, log); err != nil {
			return err
		}
		if err := writeSpans(log, w, seed, outDir); err != nil {
			return err
		}
		vals, defs = res.PerLayer, perLayer
	} else {
		if res, err = measureEndToEnd(w, seed, sz, b, dir); err != nil {
			return err
		}
		vals, defs = res.EndToEnd, endToEnd
	}
	printResult(res)
	return json.NewEncoder(os.Stdout).Encode(driverLine(res, vals, defs))
}

// driverLine is the contract's result object.
func driverLine(res workloadResult, vals map[string]metricValue, defs []metricDef) map[string]any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		metrics[d.Name] = valueUnit{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

func printResult(res workloadResult) {
	fmt.Printf("%s\n", res.Name)
	fmt.Printf("  fingerprint %s  attempted %d  failed %d  failed_op_share %g\n",
		short(res.Fingerprint), res.Attempted, res.Failed, res.FailedOpShare())
	for _, n := range res.Notes {
		fmt.Printf("  ! %s\n", n)
	}
	for _, group := range []struct {
		defs []metricDef
		vals map[string]metricValue
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		for _, d := range group.defs {
			v, ok := group.vals[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-30s %14.6g %-6s (median of %d, spread %.1f%%)\n", d.Name, v.Value, d.Unit, v.Reps, 100*v.Spread)
		}
	}
}

// writeSpans stores the traced pass's spans beside the report.
func writeSpans(log *spanLog, w workload, seed int64, outDir string) error {
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	if err := log.write(path, w.Name); err != nil {
		return err
	}
	fmt.Printf("  spans: %s\n", path)
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
