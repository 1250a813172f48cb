package fleet

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// scaledConfig mirrors the core test helper: a CI-sized campaign
// preserving all generator behaviours.
func scaledConfig(gen core.GeneratorKind, bug string, budget int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scenario = scenario.ForBug(machine.MESI, bug)
	cfg.Generator = gen
	cfg.Test = testgen.Config{
		Size:    96,
		Threads: 8,
		Layout:  memsys.MustLayout(1024, 16),
	}
	cfg.GP = gp.PaperParams()
	cfg.GP.PopulationSize = 12
	cfg.Coverage = coverage.DefaultParams()
	cfg.Host = host.Options{Iterations: 3, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = budget
	return cfg
}

// restoreProcs raises GOMAXPROCS for the duration of a test so that
// multi-worker scheduling is real even on single-core CI containers.
func restoreProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// checkNoLeaks asserts the goroutine count settles back to its
// pre-test level (early-stop cancellation must not strand workers).
func checkNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// setSpec is scaledConfig as a campaign set: n samples of the paper's
// MESI/TSO target with bug injected ("" = none).
func setSpec(gen core.GeneratorKind, bug string, budget, n int, baseSeed int64) core.Spec {
	cfg := scaledConfig(gen, bug, budget)
	return core.NewSpec(cfg, []scenario.Scenario{cfg.Scenario}, n, baseSeed)
}

// withEvents runs fn with a drained Events channel and returns every
// event the run sent.
func withEvents(fn func(events chan<- Event)) []Event {
	events := make(chan Event, 64)
	done := make(chan []Event)
	go func() {
		var got []Event
		for ev := range events {
			got = append(got, ev)
		}
		done <- got
	}()
	fn(events)
	close(events)
	return <-done
}

// resultHash fingerprints a campaign result the way the root
// simpath_identity_test.go does: every field, as name=%#v.
func resultHash(r core.Result) string {
	v := reflect.ValueOf(r)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, "%s=%#v;", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := Map(context.Background(), workers, 20, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 50, func(ctx context.Context, i int) (int, error) {
			if i == 7 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) && !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want boom or cancellation", workers, err)
		}
	}
}

// TestFleetDeterminism is the tentpole guarantee: item i of LocalMerged
// is byte-identical, at any worker count, to a plain
// core.RunCampaign(spec.ItemConfig(i)) — the fleet adds scheduling and
// nothing else.
func TestFleetDeterminism(t *testing.T) {
	const n = 6
	spec := setSpec(core.GenRandom, "LQ+no-TSO", 40, n, 100)

	want := make([]core.Result, n)
	for i := range want {
		cfg, err := spec.ItemConfig(i)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = core.RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		if want[i].SumFitness <= 0 {
			t.Fatalf("sample %d: SumFitness = %v, want > 0 (fitness stream empty?)", i, want[i].SumFitness)
		}
	}
	wantUnion := -1.0
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			restoreProcs(t, workers)
			m, err := LocalMerged(context.Background(), spec, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Results) != n {
				t.Fatalf("got %d results, want %d", len(m.Results), n)
			}
			for i, got := range m.Results {
				// The per-sample fitness stream (not just the verdict)
				// must be byte-identical at any worker count: SumFitness
				// fingerprints every run's adaptive-coverage fitness.
				if got.SumFitness != want[i].SumFitness {
					t.Errorf("sample %d: fitness stream diverges at workers=%d: got %v, want %v",
						i, workers, got.SumFitness, want[i].SumFitness)
				}
				if got != want[i] {
					t.Errorf("sample %d diverges at workers=%d:\n got %+v\nwant %+v", i, workers, got, want[i])
				}
			}
			st := m.Stats
			if st.Items != n || st.TestRuns == 0 {
				t.Errorf("implausible stats: %+v", st)
			}
			// Fleet union coverage merges commutatively, so it too is
			// worker-count independent (and at least the best shard's).
			if st.UnionCoverage < st.MaxCoverage || st.UnionCoverage <= 0 {
				t.Errorf("implausible union coverage: %v (max %v)", st.UnionCoverage, st.MaxCoverage)
			}
			if wantUnion < 0 {
				wantUnion = st.UnionCoverage
			} else if st.UnionCoverage != wantUnion {
				t.Errorf("union coverage diverges at workers=%d: got %v, want %v",
					workers, st.UnionCoverage, wantUnion)
			}
		})
	}
}

// TestFleetIslandDeterminism: the epoch-synchronized migration ring
// must also be worker-count independent.
func TestFleetIslandDeterminism(t *testing.T) {
	spec := setSpec(core.GenGPAll, "", 36, 4, 7)
	opts := Options{Islands: true, MigrationInterval: 8, Obs: true}

	var want []core.Result
	wantUnion := -1.0
	for _, workers := range []int{1, 4, 8} {
		restoreProcs(t, workers)
		o := opts
		o.Workers = workers
		var m Merged
		epochs := 0
		for _, ev := range withEvents(func(events chan<- Event) {
			o.Events = events
			var err error
			if m, err = LocalMerged(context.Background(), spec, o); err != nil {
				t.Fatal(err)
			}
		}) {
			if ev.Epoch > epochs {
				epochs = ev.Epoch
			}
		}
		if epochs == 0 {
			t.Fatalf("workers=%d: island model idle: no event past epoch 0", workers)
		}
		if m.Obs.Testgen.Count == 0 {
			t.Errorf("workers=%d: instrumented islands report no testgen spans: %s", workers, m.Obs)
		}
		// The islands' union coverage must be identical at any worker
		// count, like the per-sample results.
		st := m.Stats
		if st.UnionCoverage <= 0 || st.UnionCoverage < st.MaxCoverage {
			t.Fatalf("workers=%d: implausible union coverage %v (max %v)",
				workers, st.UnionCoverage, st.MaxCoverage)
		}
		if wantUnion < 0 {
			wantUnion = st.UnionCoverage
		} else if st.UnionCoverage != wantUnion {
			t.Errorf("workers=%d: union coverage diverges: got %v, want %v",
				workers, st.UnionCoverage, wantUnion)
		}
		if want == nil {
			want = m.Results
			continue
		}
		for i, got := range m.Results {
			if got.SumFitness != want[i].SumFitness {
				t.Errorf("island sample %d: fitness stream diverges at workers=%d: got %v, want %v",
					i, workers, got.SumFitness, want[i].SumFitness)
			}
			if got != want[i] {
				t.Errorf("island sample %d diverges at workers=%d:\n got %+v\nwant %+v", i, workers, got, want[i])
			}
		}
	}
}

// TestIslandIdentity pins the island schedule the way the root
// simpath_identity_test.go pins the simulator. The hashes are the
// per-sample core.Results of the island scheduler under RunShard
// (campaigns from spec.ItemConfig, one coverage merge per finished
// island), re-recorded with no scheduler change when resultHash began
// hashing every field instead of Result.String's five; no change to the
// ring, the barrier or the item materialization may move them. GP-All,
// 4 samples, base seed 42, MigrationInterval 10 — once to the budget,
// once as a StopOnFound hunt that cuts sample 3 off at an epoch barrier.
func TestIslandIdentity(t *testing.T) {
	cases := []struct {
		name     string
		bug      string
		budget   int
		memBytes int
		stop     bool
		want     [4]string
	}{
		{"budget", "", 40, 1024, false,
			[4]string{"5d5032d0c1a58b9b", "46af87d139ae4686", "f5eff0de62f30676", "ed84296b26618711"}},
		{"stop-on-found", "LQ+no-TSO", 2000, 8192, true,
			[4]string{"cfb65ce89779fd21", "1c84b21621aeec6e", "9cb2d1f6df08b40b", "d2b710aabcd44b83"}},
	}
	for _, tc := range cases {
		cfg := scaledConfig(core.GenGPAll, tc.bug, tc.budget)
		cfg.Test.Layout = memsys.MustLayout(tc.memBytes, 16)
		spec := core.NewSpec(cfg, []scenario.Scenario{cfg.Scenario}, 4, 42)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				restoreProcs(t, workers)
				m, err := LocalMerged(context.Background(), spec, Options{
					Workers: workers, Islands: true, StopOnFound: tc.stop,
					MigrationInterval: 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range m.Results {
					if got := resultHash(r); got != tc.want[i] {
						t.Errorf("sample %d: result hash %s, want %s\n result: %+v", i, got, tc.want[i], r)
					}
				}
			})
		}
	}
}

// TestFleetIslandsDifferFromPooled: migration must actually change the
// evolutionary trajectory (otherwise the ring is dead code).
func TestFleetIslandsDifferFromPooled(t *testing.T) {
	spec := setSpec(core.GenGPAll, "", 40, 3, 7)
	pooled, err := LocalMerged(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	isl, err := LocalMerged(context.Background(), spec,
		Options{Workers: 1, Islands: true, MigrationInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range pooled.Results {
		if pooled.Results[i] != isl.Results[i] {
			same = false
		}
	}
	if same {
		t.Error("island migration had no observable effect on any sample")
	}
}

// TestFleetEarlyStopCancelsSiblings: with StopOnFound, once one sample
// finds the bug the others must stop early, and no goroutines may
// leak.
func TestFleetEarlyStopCancelsSiblings(t *testing.T) {
	restoreProcs(t, 4)
	before := runtime.NumGoroutine()
	// A large budget that sequential execution would take ages to
	// exhaust: early stop is what keeps this test fast.
	spec := setSpec(core.GenRandom, "LQ+no-TSO", 100000, 4, 100)
	var m Merged
	evs := withEvents(func(events chan<- Event) {
		var err error
		m, err = LocalMerged(context.Background(), spec,
			Options{Workers: 4, StopOnFound: true, Events: events})
		if err != nil {
			t.Fatal(err)
		}
	})
	if m.Stats.Found == 0 {
		t.Fatal("no sample found LQ+no-TSO")
	}
	// Every item that ran reported exactly one final event carrying the
	// tally the merge kept; the rest never started and stay zero.
	seen := map[int]bool{}
	for _, ev := range evs {
		if !ev.Done || seen[ev.Sample] {
			t.Errorf("unexpected event %+v", ev)
		}
		seen[ev.Sample] = true
		if ev.Result != m.Results[ev.Sample] {
			t.Errorf("sample %d: event tally %+v, merged %+v", ev.Sample, ev.Result, m.Results[ev.Sample])
		}
		if ev.Stopped == ev.Result.Found {
			t.Errorf("sample %d: stopped=%v with found=%v", ev.Sample, ev.Stopped, ev.Result.Found)
		}
	}
	for i, r := range m.Results {
		if !seen[i] && r != (core.Result{}) {
			t.Errorf("sample %d has a tally but no final event: %+v", i, r)
		}
	}
	checkNoLeaks(t, before)
}

// TestFleetEarlyStopIslands: epoch-barrier early stop in island mode.
func TestFleetEarlyStopIslands(t *testing.T) {
	restoreProcs(t, 4)
	before := runtime.NumGoroutine()
	spec := setSpec(core.GenGPAll, "LQ+no-TSO", 100000, 3, 100)
	m, err := LocalMerged(context.Background(), spec,
		Options{Workers: 4, StopOnFound: true, Islands: true, MigrationInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Found == 0 {
		t.Fatal("no island found LQ+no-TSO")
	}
	checkNoLeaks(t, before)
}

// cancelledPartials runs spec under a deadline it cannot meet and
// checks the contract for a cut-off run: the deadline surfaces as the
// error (unlike early stop), and beside it come the partial tallies,
// each announced by a Stopped final event.
func cancelledPartials(t *testing.T, spec core.Spec, opts Options, deadline time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var m Merged
	evs := withEvents(func(events chan<- Event) {
		opts.Events = events
		var err error
		m, err = LocalMerged(ctx, spec, opts)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	})
	if len(m.Results) != spec.Items() {
		t.Fatalf("cancelled run returned %d results, want %d", len(m.Results), spec.Items())
	}
	if m.Stats.TestRuns == 0 {
		t.Error("cancellation discarded every in-flight partial tally")
	}
	stopped := 0
	for _, ev := range evs {
		if ev.Done && ev.Stopped {
			stopped++
			if ev.Result != m.Results[ev.Sample] {
				t.Errorf("sample %d: stopped event tally %+v, merged %+v", ev.Sample, ev.Result, m.Results[ev.Sample])
			}
		}
	}
	if stopped == 0 {
		t.Error("no cut-off item emitted a Stopped final event")
	}
}

// TestFleetContextCancellation: caller cancellation surfaces as an
// error (unlike early stop) and still returns partial tallies.
func TestFleetContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	cancelledPartials(t, setSpec(core.GenRandom, "", 100000, 2, 1), Options{Workers: 2}, 50*time.Millisecond)
	checkNoLeaks(t, before)
}

// TestFleetIslandCancellationKeepsPartials mirrors the pooled partial
// tally guarantee for islands cut off mid-epoch.
func TestFleetIslandCancellationKeepsPartials(t *testing.T) {
	cancelledPartials(t, setSpec(core.GenGPAll, "", 100000, 2, 1),
		Options{Workers: 2, Islands: true, MigrationInterval: 5}, 100*time.Millisecond)
}

func TestFleetConfigErrorPropagates(t *testing.T) {
	if _, err := LocalMerged(context.Background(), setSpec("bogus", "", 10, 2, 1), Options{}); err == nil {
		t.Fatal("bogus generator accepted")
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3 (clamped to items)", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Errorf("Workers(-1, 0) = %d, want 1", got)
	}
}
