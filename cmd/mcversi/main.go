// Command mcversi runs McVerSi verification campaigns: a generator
// (rand | gp-all | gp-std-xo) hunting injected bugs (or none) on a
// simulated MESI or TSO-CC machine, checked against a scenario's
// axiomatic model. Every invocation is one campaign set — scenarios ×
// samples, described by a serializable spec — sharded across cores by
// the campaign fleet. Results are identical for a fixed seed at any
// -parallel.
//
// The verification target is a scenario (-list-scenarios to enumerate),
// mesi-tso — the paper's — by default; -bug injects a bug into each:
//
//	mcversi -scenario mesi-pso            # one scenario
//	mcversi -scenario mesi-tso,mesi-rmo   # sweep a subset
//	mcversi -scenario all                 # sweep every registered one
//	mcversi -scenario tsocc-tso -bug TSO-CC+compare
//
// A campaign set spreads across processes or hosts as static shards:
// each of N processes runs one contiguous item range and writes a shard
// file, and -merge folds the files into what one local run prints and
// writes:
//
//	mcversi -samples 10 -shard 0/2 -shard-out s0.json
//	mcversi -samples 10 -shard 1/2 -shard-out s1.json
//	mcversi -merge -merged-out merged.json s0.json s1.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process surface injected: 0 on a finished
// campaign set (finding a bug is not a failure), 1 when the run, the
// merge or an output file failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcversi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.String("gen", "gp-all", "generator: rand | gp-all | gp-std-xo")
	bug := fs.String("bug", "", "bug to inject into every scenario (empty = none); -list for names")
	mem := fs.Int("mem", 8192, "test memory bytes (paper: 1024 or 8192)")
	budget := fs.Int("budget", 1000, "campaign budget in test-runs")
	samples := fs.Int("samples", 1, "number of samples (distinct seeds)")
	seed := fs.Int64("seed", 1, "base seed")
	parallel := fs.Int("parallel", 0, "fleet workers (0 = all cores, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the whole fleet (0 = none)")
	islands := fs.Bool("islands", false, "GP island model: migrate elites between samples")
	migrate := fs.Int("migrate", 50, "island migration interval in test-runs")
	progress := fs.Bool("progress", false, "stream per-sample fleet events and the phase breakdown to stderr")
	list := fs.Bool("list", false, "list the 11 studied bugs and exit")
	scenarioFlag := fs.String("scenario", "mesi-tso",
		"verification scenario(s): a registered name, a comma-separated list, or 'all' (-list-scenarios for names)")
	listScenarios := fs.Bool("list-scenarios", false, "list the registered scenarios and exit")
	shardFlag := fs.String("shard", "",
		"run only shard i/N (0 <= i < N <= items): the i-th of N contiguous item ranges, written to -shard-out for -merge")
	shardOut := fs.String("shard-out", "", "with -shard: write the spec and the shard's results to this JSON file")
	merge := fs.Bool("merge", false,
		"merge the shard files given as arguments and report the campaign set exactly as a local run of it would")
	mergedOut := fs.String("merged-out", "",
		"write the canonical merged result JSON to this file (a local run and a -merge of its shards write byte-identical files)")
	bundleDir := fs.String("bundle", "",
		"for each sample that found a bug, write a repro bundle (campaign, failing test, and for checker violations the failing iteration's trace) under this directory")
	replayDir := fs.String("replay", "",
		"re-simulate the repro bundle in this directory and exit 0 only if it fails exactly as recorded")
	shrinkFlag := fs.Bool("shrink", false, "with -replay: delta-debug the bundle's test and write the shrunk bundle beside it")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mcversi:", err)
		return code
	}
	if fs.NArg() > 0 && !*merge {
		// flag stops at the first non-flag argument: every flag after it
		// would be silently ignored.
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	if *list || *listScenarios {
		// A listing runs nothing: any other flag would be silently ignored.
		if extra := otherFlags(fs, "list", "list-scenarios"); extra != "" {
			return fail(2, fmt.Errorf("-list and -list-scenarios take no other flag, not %s", extra))
		}
	}
	if *list {
		for _, b := range mcversi.Bugs() {
			star := " "
			if b.Real {
				star = "*"
			}
			fmt.Fprintf(stdout, "%s %-26s [%s] %s\n", star, b.Name, b.Protocol, b.Description)
		}
		return 0
	}
	if *listScenarios {
		scens := mcversi.Scenarios()
		width := 0
		for _, s := range scens {
			width = max(width, len(s.ID()))
		}
		for _, s := range scens {
			fmt.Fprintf(stdout, "%-12s %-*s %s\n", s.Name, width, s.ID(), s.Description)
		}
		return 0
	}
	switch {
	case *shrinkFlag && *replayDir == "":
		return fail(2, errors.New("-shrink needs -replay"))
	case *replayDir != "":
		// A bundle carries its whole campaign; any other flag would be
		// silently ignored.
		if extra := otherFlags(fs, "replay", "shrink"); extra != "" {
			return fail(2, fmt.Errorf("-replay takes only -shrink, not %s", extra))
		}
		return replay(*replayDir, *shrinkFlag, stdout, stderr)
	case *merge:
		// Shard files carry their campaign set; only its outputs are
		// chosen here.
		if extra := otherFlags(fs, "merge", "merged-out", "bundle"); extra != "" {
			return fail(2, fmt.Errorf("-merge takes only -merged-out and -bundle, not %s", extra))
		}
		if fs.NArg() == 0 {
			return fail(2, errors.New("-merge needs the shard files to merge"))
		}
		return runMerge(fs.Args(), *mergedOut, *bundleDir, stdout, stderr)
	}

	var shard, shards int
	switch {
	case *shardOut != "" && *shardFlag == "":
		return fail(2, errors.New("-shard-out needs -shard"))
	case *shardFlag == "":
	case *shardOut == "":
		return fail(2, errors.New("-shard needs -shard-out"))
	case *islands || *bundleDir != "" || *mergedOut != "":
		// Islands couple every sample of the set; bundles and the merged
		// result are the merge's to write.
		return fail(2, errors.New("-shard runs part of a campaign set: -islands, -bundle and -merged-out need all of it"))
	default:
		var err error
		if shard, shards, err = parseShard(*shardFlag); err != nil {
			return fail(2, err)
		}
	}

	var scens []mcversi.Scenario
	if *scenarioFlag == "all" {
		scens = mcversi.Scenarios()
	} else {
		for _, name := range strings.Split(*scenarioFlag, ",") {
			s, err := mcversi.ScenarioByName(strings.TrimSpace(name))
			if err != nil {
				return fail(2, err)
			}
			scens = append(scens, s)
		}
	}
	// A bug of the other protocol is refused by spec.Validate below.
	for i := range scens {
		scens[i] = scens[i].Inject(*bug)
	}
	migrateSet := false
	fs.Visit(func(f *flag.Flag) { migrateSet = migrateSet || f.Name == "migrate" })
	switch {
	case *islands && len(scens) > 1:
		// Islands exchange chromosomes between populations bred for one
		// machine contract; a sweep runs different contracts side by side.
		return fail(2, errors.New("-islands needs a single scenario, not a sweep"))
	case *parallel < 0:
		return fail(2, fmt.Errorf("-parallel must not be negative, got %d", *parallel))
	case *timeout < 0:
		return fail(2, fmt.Errorf("-timeout must not be negative, got %v", *timeout))
	case migrateSet && !*islands:
		return fail(2, errors.New("-migrate needs -islands"))
	case *islands && *migrate <= 0:
		return fail(2, fmt.Errorf("-migrate must be positive with -islands, got %d", *migrate))
	case *islands && mcversi.GeneratorKind(*gen) == mcversi.GenRandom:
		// The fleet migrates GP elites; rand has no population to migrate.
		return fail(2, errors.New("-islands needs a GP generator, not -gen rand"))
	case *bundleDir != "" && *islands:
		// A bundle re-runs one sample on its own; an island's tests came
		// from its neighbours' elites too.
		return fail(2, errors.New("-bundle is not available with -islands"))
	}
	if _, err := mcversi.NewMemoryLayout(*mem, mcversi.TestMemoryStride); err != nil {
		return fail(2, fmt.Errorf("-mem: %w", err))
	}
	cfg := mcversi.ScaledScenarioConfig(mcversi.GeneratorKind(*gen), scens[0], *mem)
	cfg.MaxTestRuns = *budget
	spec := core.NewSpec(cfg, scens, *samples, *seed)
	if err := spec.Validate(); err != nil {
		return fail(2, err)
	}
	if items := spec.Items(); shards > items {
		return fail(2, fmt.Errorf("-shard %s: %d shards of %d items would leave one empty", *shardFlag, shards, items))
	}

	// The output file exists before the run, so an unwritable
	// destination costs no test-run.
	path := *mergedOut
	if *shardFlag != "" {
		path = *shardOut
	}
	out, err := createOutput(path)
	if err != nil {
		return fail(1, err)
	}
	defer out.discard()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := fleet.Options{
		Workers:           *parallel,
		Islands:           *islands,
		MigrationInterval: *migrate,
	}

	if *shardFlag != "" {
		items := spec.Items()
		r := fleet.Range{Start: shard * items / shards, End: (shard + 1) * items / shards}
		var sr fleet.ShardResult
		var runErr error
		withProgress(opts, *progress, stderr, func(opts fleet.Options) obs.Snapshot {
			sr, runErr = fleet.RunShard(ctx, spec, r, opts)
			return sr.Obs
		})
		if runErr != nil {
			// A partial shard is never written: -merge must not fold it.
			return fail(1, runErr)
		}
		data, err := json.Marshal(shardFile{Spec: spec, Shard: sr})
		if err == nil {
			err = out.write(data)
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "mcversi: wrote shard %s (items %s) to %s\n", *shardFlag, r, *shardOut)
		return 0
	}

	var merged fleet.Merged
	var runErr error
	withProgress(opts, *progress, stderr, func(opts fleet.Options) obs.Snapshot {
		merged, runErr = fleet.LocalMerged(ctx, spec, opts)
		return merged.Obs
	})
	// On error (e.g. -timeout expiry) the run still reports every
	// sample's tally — completed samples and partial ones — before
	// exiting nonzero.
	report(stdout, spec, merged)
	if runErr != nil {
		return fail(1, runErr)
	}
	if err := writeOutputs(spec, merged, *bundleDir, out, stderr); err != nil {
		return fail(1, err)
	}
	return 0
}

// otherFlags names the flags set on the command line besides keep, in
// flag order, or returns "".
func otherFlags(fs *flag.FlagSet, keep ...string) string {
	var extra []string
	fs.Visit(func(f *flag.Flag) {
		for _, k := range keep {
			if f.Name == k {
				return
			}
		}
		extra = append(extra, "-"+f.Name)
	})
	return strings.Join(extra, " ")
}

// parseShard reads -shard's i/N.
func parseShard(v string) (shard, shards int, err error) {
	is, ns, ok := strings.Cut(v, "/")
	shard, ierr := strconv.Atoi(is)
	shards, nerr := strconv.Atoi(ns)
	if !ok || ierr != nil || nerr != nil || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("-shard %q: want i/N with 0 <= i < N", v)
	}
	return shard, shards, nil
}

// withProgress calls run with opts; under progress it streams the
// fleet's events to stderr while run runs, then the phase breakdown run
// returns.
func withProgress(opts fleet.Options, progress bool, stderr io.Writer, run func(fleet.Options) obs.Snapshot) {
	if !progress {
		run(opts)
		return
	}
	events := make(chan fleet.Event, 64) // slack so a slow terminal does not stall workers
	drained := make(chan struct{})
	opts.Events = events
	go func() {
		defer close(drained)
		for ev := range events {
			renderEvent(stderr, ev)
		}
	}()
	phases := run(opts)
	close(events)
	<-drained
	fmt.Fprintf(stderr, "[obs] phase breakdown: %s\n", phases)
}

// writeOutputs writes what a finished campaign set leaves besides its
// report: the repro bundles under bundleDir, then the canonical merged
// JSON into out (when either was asked for).
func writeOutputs(spec core.Spec, merged fleet.Merged, bundleDir string, out *output, stderr io.Writer) error {
	if bundleDir != "" {
		if err := writeBundles(bundleDir, spec, merged, stderr); err != nil {
			return err
		}
	}
	if out == nil {
		return nil
	}
	data, err := merged.CanonicalBytes()
	if err != nil {
		return err
	}
	if err := out.write(data); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mcversi: wrote canonical merged result to %s (%d bytes)\n", out.path, len(data))
	return nil
}

// renderEvent writes one progress line to stderr.
func renderEvent(w io.Writer, ev fleet.Event) {
	state := "epoch"
	switch {
	case ev.Done && ev.Stopped:
		state = "stopped"
	case ev.Done:
		state = "done"
	}
	scen := ""
	if ev.Scenario != "" {
		scen = " " + ev.Scenario
	}
	elapsed := ""
	if ev.Elapsed > 0 {
		elapsed = ", " + ev.Elapsed.Round(time.Millisecond).String()
	}
	fmt.Fprintf(w, "[fleet] sample %d%s %s: %d runs, %.1f%% coverage%s\n",
		ev.Sample, scen, state, ev.Result.TestRuns, 100*ev.Result.TotalCoverage, elapsed)
}

// report prints a campaign set: every sample under its scenario, then
// the aggregate. A set that never ran (no results) prints nothing.
func report(w io.Writer, spec core.Spec, m fleet.Merged) {
	if len(m.Results) != spec.Items() {
		return
	}
	for si, scen := range spec.Scenarios {
		fmt.Fprintf(w, "scenario %s:\n", scen)
		for j, r := range m.Results[si*spec.Samples : (si+1)*spec.Samples] {
			fmt.Fprintf(w, "  sample %d: %s\n", j, r)
			if r.Found {
				fmt.Fprintf(w, "    %s\n", strings.TrimSpace(r.Detail))
			}
		}
	}
	fmt.Fprintf(w, "\n%d/%d samples found a bug (%d test-runs total)\n",
		m.Stats.Found, m.Stats.Items, m.Stats.TestRuns)
	if f := m.Stats.FoundBy; m.Stats.Found > 0 {
		fmt.Fprintf(w, "found by source: %d mcm-violation, %d protocol-error, %d deadlock\n",
			f.MCMViolation, f.ProtocolError, f.Deadlock)
	}
	if m.Fastpath.Checks > 0 {
		fmt.Fprintf(w, "checker fast path: %s\n", m.Fastpath)
	}
	if m.Stats.UnionCoverage > 0 {
		fmt.Fprintf(w, "fleet union coverage: %.1f%% of the transition table\n", 100*m.Stats.UnionCoverage)
	}
}
