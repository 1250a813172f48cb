// Command mcversi runs McVerSi verification campaigns: a generator
// (rand | gp-all | gp-std-xo) hunting injected bugs (or none) on a
// simulated MESI or TSO-CC machine, checked against a scenario's
// axiomatic model. Every invocation is one campaign set — scenarios ×
// samples, described by a serializable spec — sharded across cores by
// the campaign fleet, or across machines by a mcversid service with
// -remote; results are identical either way for a fixed seed, and at
// any -parallel.
//
// The verification target is a scenario (-list-scenarios to enumerate):
//
//	mcversi -scenario mesi-pso            # one scenario
//	mcversi -scenario mesi-tso,mesi-rmo   # sweep a subset
//	mcversi -scenario all                 # sweep every registered one
//
// Without -scenario, -protocol/-bug describe one: the paper's TSO
// target on that protocol with that bug injected.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process surface injected: 0 on a finished
// campaign set (finding a bug is not a failure), 1 when the run or the
// service failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcversi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gen := fs.String("gen", "gp-all", "generator: rand | gp-all | gp-std-xo")
	proto := fs.String("protocol", "MESI", "protocol: MESI | TSO-CC")
	bug := fs.String("bug", "", "bug to inject (empty = none); -list for names")
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
	scenarioFlag := fs.String("scenario", "",
		"verification scenario(s): a registered name, a comma-separated list, or 'all' (-list-scenarios for names); overrides -protocol/-bug")
	listScenarios := fs.Bool("list-scenarios", false, "list the registered scenarios and exit")
	remote := fs.String("remote", "",
		"submit the campaign to a mcversid service at this base URL instead of running locally")
	tenant := fs.String("tenant", "", "tenant id for -remote admission control")
	mergedOut := fs.String("merged-out", "",
		"write the canonical merged result JSON to this file (local and -remote runs of one campaign produce byte-identical files)")
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
	if fs.NArg() > 0 {
		// flag stops at the first non-flag argument: every flag after it
		// would be silently ignored.
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
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
		for _, s := range mcversi.Scenarios() {
			fmt.Fprintf(stdout, "%-12s %-28s %s\n", s.Name, s.ID(), s.Description)
		}
		return 0
	}
	switch {
	case *shrinkFlag && *replayDir == "":
		return fail(2, errors.New("-shrink needs -replay"))
	case *replayDir != "":
		// A bundle carries its whole campaign; any other flag would be
		// silently ignored.
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "replay" && f.Name != "shrink" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return fail(2, fmt.Errorf("-replay takes only -shrink, not %s", strings.Join(extra, " ")))
		}
		return replay(*replayDir, *shrinkFlag, stdout, stderr)
	}

	var scens []mcversi.Scenario
	switch *scenarioFlag {
	case "":
		s := mcversi.Scenario{Protocol: mcversi.Protocol(*proto), Model: "TSO"}
		if *bug != "" {
			s.Bugs = []string{*bug}
		}
		scens = []mcversi.Scenario{s}
	case "all":
		scens = mcversi.Scenarios()
	default:
		for _, name := range strings.Split(*scenarioFlag, ",") {
			s, err := mcversi.ScenarioByName(strings.TrimSpace(name))
			if err != nil {
				return fail(2, err)
			}
			scens = append(scens, s)
		}
	}
	switch {
	case *islands && len(scens) > 1:
		// Islands exchange chromosomes between populations bred for one
		// machine contract; a sweep runs different contracts side by side.
		return fail(2, errors.New("-islands needs a single scenario, not a sweep"))
	case *remote != "" && *islands:
		return fail(2, errors.New("-islands is not available with -remote (shards must be independent)"))
	case *parallel < 0:
		return fail(2, fmt.Errorf("-parallel must not be negative, got %d", *parallel))
	case *timeout < 0:
		return fail(2, fmt.Errorf("-timeout must not be negative, got %v", *timeout))
	case *islands && *migrate <= 0:
		return fail(2, fmt.Errorf("-migrate must be positive with -islands, got %d", *migrate))
	case *islands && mcversi.GeneratorKind(*gen) == mcversi.GenRandom:
		// The fleet migrates GP elites; rand has no population to migrate.
		return fail(2, errors.New("-islands needs a GP generator, not -gen rand"))
	case *tenant != "" && *remote == "":
		return fail(2, errors.New("-tenant is only used with -remote"))
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

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		merged fleet.Merged
		data   []byte // the service's exact result bytes (-remote only)
		runErr error
	)
	if *remote != "" {
		merged, data, runErr = runRemote(ctx, *remote, *tenant, spec, *progress, stderr)
	} else {
		opts := fleet.Options{
			Workers:           *parallel,
			Islands:           *islands,
			MigrationInterval: *migrate,
		}
		merged, runErr = runLocal(ctx, spec, opts, *progress, stderr)
	}

	// On error (e.g. -timeout expiry) a local run still reports every
	// sample's tally — completed samples and partial ones — before
	// exiting nonzero.
	report(stdout, spec, merged)
	if runErr != nil {
		return fail(1, runErr)
	}
	if *bundleDir != "" {
		if err := writeBundles(*bundleDir, spec, merged, stderr); err != nil {
			return fail(1, err)
		}
	}
	if *mergedOut != "" {
		if data == nil {
			var err error
			if data, err = merged.CanonicalBytes(); err != nil {
				return fail(1, err)
			}
		}
		if err := os.WriteFile(*mergedOut, data, 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "mcversi: wrote canonical merged result to %s (%d bytes)\n", *mergedOut, len(data))
	}
	return 0
}

// runLocal runs the spec on this process's fleet, streaming events and
// the phase breakdown — the one the daemon's /statusz reports — to
// stderr under progress.
func runLocal(ctx context.Context, spec core.Spec, opts fleet.Options, progress bool, stderr io.Writer) (fleet.Merged, error) {
	if !progress {
		return fleet.LocalMerged(ctx, spec, opts)
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
	merged, err := fleet.LocalMerged(ctx, spec, opts)
	close(events)
	<-drained
	fmt.Fprintf(stderr, "[obs] phase breakdown: %s\n", merged.Obs)
	return merged, err
}

// runRemote submits the spec to a mcversid service, waits for it —
// narrating its progress log under progress — and fetches the merged
// result: the decoded aggregate and the exact bytes the service
// produced.
func runRemote(ctx context.Context, url, tenant string, spec core.Spec, progress bool, stderr io.Writer) (fleet.Merged, []byte, error) {
	client := service.NewClient(url)
	id, err := client.Submit(ctx, tenant, spec)
	if err != nil {
		return fleet.Merged{}, nil, err
	}
	fmt.Fprintf(stderr, "mcversi: submitted campaign %s to %s (%d items)\n", id, url, spec.Items())
	if progress {
		var failed error
		err = client.Events(ctx, id, func(ev service.Event) bool {
			switch ev.Type {
			case service.EventSample:
				if ev.Result != nil {
					renderEvent(stderr, fleet.Event{Sample: ev.Sample, Scenario: ev.Scenario, Done: true, Result: *ev.Result})
				}
			case service.EventLeased:
				fmt.Fprintf(stderr, "[fleet] shard %s leased to %s\n", ev.Shard, ev.Worker)
			case service.EventExpired:
				fmt.Fprintf(stderr, "[fleet] shard %s lease expired on %s, re-issuing\n", ev.Shard, ev.Worker)
			case service.EventFailed:
				failed = fmt.Errorf("service: campaign failed: %s", ev.Err)
			}
			return true
		})
		if err == nil {
			err = failed
		}
	} else {
		_, err = client.WaitDone(ctx, id, 100*time.Millisecond)
	}
	if err != nil {
		return fleet.Merged{}, nil, err
	}
	data, err := client.ResultBytes(ctx, id)
	if err != nil {
		return fleet.Merged{}, nil, err
	}
	var merged fleet.Merged
	if err := json.Unmarshal(data, &merged); err != nil {
		return fleet.Merged{}, nil, err
	}
	return merged, data, nil
}

// renderEvent writes one progress line to stderr; local fleet events
// and remote sample events read identically.
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
