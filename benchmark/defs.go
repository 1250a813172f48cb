package main

// metricDef names one metric. The tables below are the program's copy of
// BENCHMARK.json (the smoke test asserts the two agree); later perf and
// simplicity issues refer to these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks a per-layer count that is a pure function of the
	// seed: two runs at one seed must report it identically, and a
	// simulator-only speed-up that moves one changed the model.
	Exact bool
}

// endToEnd are the metrics a user of the system sees. An op is one
// test-run on sweep-*, one trace decided under all four models on
// oracle-*, and one campaign (submit → merged bytes fetched) on
// service-loopback. Failed operations travel beside them as
// attempted/failed (failed_op_share in reports), with a zero bound.
//
// The two timing bounds are as wide as the contract allows because the
// reference sandbox is that noisy: with unchanged code its speed shifts
// by 10–15% between quarter-hours, and ten runs at ten seeds spread
// (IQR/median) up to 7.5%. Allocation repeats to about 1%.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced-pass metrics; layer = module name. A traced
// pass fills the metrics of the layers its workload drives and reports
// 0 for the rest.
var perLayer = []metricDef{
	// core / obs
	{Name: "core.new_campaign_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "obs.testgen_share", Unit: "share", Better: "lower"},
	{Name: "obs.sim_share", Unit: "share", Better: "lower"},
	{Name: "obs.fastcheck_share", Unit: "share", Better: "lower"},
	{Name: "obs.check_share", Unit: "share", Better: "lower"},
	{Name: "obs.memo_share", Unit: "share", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "obs.overhead_share", Unit: "share", Better: "lower"},
	// sim / cpu / coverage
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ticks", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cpu.committed_instr", Unit: "count", Better: "higher", Exact: true},
	{Name: "cpu.kinstr_per_s", Unit: "1/s", Better: "higher"},
	{Name: "coverage.union_share", Unit: "share", Better: "higher", Exact: true},
	// checker / collective / memmodel / fastpath
	{Name: "checker.checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "checker.record_us", Unit: "us", Better: "lower"},
	{Name: "collective.unique", Unit: "count", Better: "lower", Exact: true},
	{Name: "collective.hit_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "collective.signature_us", Unit: "us", Better: "lower"},
	{Name: "fastpath.conclusive_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "fastpath.fallbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "fastpath.decide_sc_us", Unit: "us", Better: "lower"},
	{Name: "fastpath.decide_tso_us", Unit: "us", Better: "lower"},
	{Name: "fastpath.decide_pso_us", Unit: "us", Better: "lower"},
	{Name: "memmodel.exact_sc_us", Unit: "us", Better: "lower"},
	{Name: "memmodel.exact_tso_us", Unit: "us", Better: "lower"},
	{Name: "memmodel.exact_pso_us", Unit: "us", Better: "lower"},
	{Name: "memmodel.exact_rmo_us", Unit: "us", Better: "lower"},
	// testgen / gp
	{Name: "testgen.new_test_us", Unit: "us", Better: "lower"},
	{Name: "testgen.compile_us", Unit: "us", Better: "lower"},
	{Name: "gp.next_feedback_us", Unit: "us", Better: "lower"},
	// trace
	{Name: "trace.decode_text_us", Unit: "us", Better: "lower"},
	{Name: "trace.decode_binary_us", Unit: "us", Better: "lower"},
	{Name: "trace.materialize_us", Unit: "us", Better: "lower"},
	{Name: "trace.encode_text_us", Unit: "us", Better: "lower"},
	{Name: "trace.encode_binary_us", Unit: "us", Better: "lower"},
	{Name: "trace.text_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "trace.binary_bytes", Unit: "bytes", Better: "lower", Exact: true},
	// store
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "store.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.close_ms", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_per_record", Unit: "bytes", Better: "lower", Exact: true},
	// oracle
	{Name: "oracle.check_trace_us", Unit: "us", Better: "lower"},
	{Name: "oracle.check_trace_hit_us", Unit: "us", Better: "lower"},
	{Name: "oracle.decode_share", Unit: "share", Better: "lower"},
	{Name: "oracle.fastcheck_share", Unit: "share", Better: "lower"},
	{Name: "oracle.check_share", Unit: "share", Better: "lower"},
	{Name: "oracle.memo_share", Unit: "share", Better: "lower"},
	{Name: "oracle.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "oracle.durable_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "oracle.memo_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "oracle.invalid_verdicts", Unit: "count", Better: "lower", Exact: true},
	// fleet / service
	{Name: "fleet.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.canonical_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "fleet.w2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "service.campaign_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.campaign_ms_p85", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_share", Unit: "share", Better: "lower"},
	{Name: "service.shards", Unit: "count", Better: "lower", Exact: true},
	{Name: "service.result_bytes", Unit: "bytes", Better: "lower", Exact: true},
	// runtime
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower"},
}

// sizes freezes the work of one repetition of every workload. Counts
// are never calibrated at run time, so simulated statistics repeat
// exactly at one seed; -seconds only decides how many repetitions run.
type sizes struct {
	// Sweep workloads: operations per generated test, executions per
	// test-run, GP population, and test-runs per item.
	TestOps, Iterations, Population int
	FastRuns, ExactRuns             int
	ExactSamples                    int
	// Oracle workloads: generated traces in the corpus (the litmus
	// classics ride along) and operations per trace.
	CorpusTraces, TraceOps int
	// Service workload: samples per scenario and campaigns per rep.
	ServiceSamples, CampaignsPerRep int
	// KernelIters is how often each per-layer kernel is timed; Pairs
	// the depth of each fixed-depth paired-ratio estimate.
	KernelIters, Pairs int
}

// fullSizes are the shapes of ISSUE 12. The oracle corpus is 160 traces
// rather than the prototype's 500 so that set-up (which for oracle-warm
// includes a full cold pass) can repeat within the run-time contract;
// the per-trace shape (1 000 ops × 8 threads) is unchanged.
var fullSizes = sizes{
	TestOps: 256, Iterations: 5, Population: 24,
	FastRuns: 70, ExactRuns: 150, ExactSamples: 4,
	CorpusTraces: 160, TraceOps: 1000,
	ServiceSamples: 8, CampaignsPerRep: 30,
	KernelIters: 40, Pairs: 5,
}

// workload is one named set of inputs. prepare is the timed set-up; it
// derives every input from seed and returns the running instance.
type workload struct {
	Name string
	Why  string
	// SetupReps is how often the end-to-end pass sets up (setup_s is
	// the median): more often where set-up takes milliseconds.
	SetupReps int
	prepare   func(seed int64, sz sizes, dir string) (instance, error)
}

// instance is a prepared workload. rep and traced run the same fixed
// work: rep through the public entry point with tracing off, traced
// re-driven call by call from this package with spans and counters.
// kernels times single layers in isolation on the workload's inputs.
type instance interface {
	rep() outcome
	traced(log *spanLog) (outcome, layerMetrics)
	kernels() layerMetrics
	close()
}

// outcome is the checked result of one repetition.
type outcome struct {
	Attempted, Failed int
	// Fingerprint is the SHA-256 of the repetition's canonical output
	// (merged bytes, verdict stream, or service result bytes).
	Fingerprint string
	// Notes explain failed ops (first few only).
	Notes []string
}

// layerMetrics maps per-layer metric names to the values a traced
// repetition measured.
type layerMetrics map[string]float64

var workloads = []workload{
	{
		Name:      "sweep-fast",
		Why:       "SC/TSO/PSO campaigns on MESI: simulator-bound, the fast path decides every check and the exact checker is idle",
		SetupReps: 31,
		prepare:   prepareSweepFast,
	},
	{
		Name:      "sweep-exact",
		Why:       "RMO campaigns on MESI: every check falls back to the exact checker, which carries about 40% beside the relaxed cores",
		SetupReps: 31,
		prepare:   prepareSweepExact,
	},
	{
		Name:      "oracle-cold",
		Why:       "text traces into an empty store with 1 worker: decode, signature, both checkers and the store write path do the work",
		SetupReps: 3,
		prepare:   prepareOracleCold,
	},
	{
		Name:      "oracle-warm",
		Why:       "the same traces in binary against a pre-filled store with 2 workers: checkers bypassed, store read path and fan-out remain",
		SetupReps: 3,
		prepare:   prepareOracleWarm,
	},
	{
		Name:      "service-loopback",
		Why:       "campaigns through mcversid over loopback HTTP with 2 workers: concurrent shards in one process plus lease, JSON and merge",
		SetupReps: 5,
		prepare:   prepareService,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
