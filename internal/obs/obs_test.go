package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("queue_depth", "Queued jobs.")
	g.Set(3)
	r.GaugeFunc("workers", "Live workers.", func() float64 { return 3 })

	text := render(t, r)
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 3\n",
		"workers 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestLabelledSeriesSortedAndShared(t *testing.T) {
	r := NewRegistry()
	r.Counter("rejects_total", "Rejects.", "reason", "zz").Inc()
	a := r.Counter("rejects_total", "Rejects.", "reason", "aa")
	a.Add(2)
	// Re-registering the same (name, labels) must return the same handle.
	r.Counter("rejects_total", "Rejects.", "reason", "aa").Inc()
	if got := a.Load(); got != 3 {
		t.Fatalf("re-registered handle not shared: %d", got)
	}

	text := render(t, r)
	ia := strings.Index(text, `rejects_total{reason="aa"} 3`)
	iz := strings.Index(text, `rejects_total{reason="zz"} 1`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("labelled series missing or unsorted (aa@%d zz@%d):\n%s", ia, iz, text)
	}
	// One family header even with many series.
	if strings.Count(text, "# TYPE rejects_total") != 1 {
		t.Fatalf("family header duplicated:\n%s", text)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	// Non-finite observations are dropped, not poisoned into the sum.
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))

	text := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_sum 56.05`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, text)
		}
	}
	if h.Count() != 5 || h.Sum() != 56.05 {
		t.Fatalf("count/sum = %d/%v", h.Count(), h.Sum())
	}
}

func TestNonFiniteValuesClampedToZero(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("bad_ratio", "Non-finite at scrape time.", func() float64 { return math.NaN() })
	r.GaugeFunc("bad_inf", "Non-finite at scrape time.", func() float64 { return math.Inf(1) })
	text := render(t, r)
	if strings.Contains(text, "NaN") || strings.Contains(text, "Inf") {
		t.Fatalf("non-finite value leaked into exposition:\n%s", text)
	}
	for _, want := range []string{"bad_ratio 0\n", "bad_inf 0\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("clamped sample %q missing:\n%s", want, text)
		}
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(7)
	g.Set(1)
	h.Observe(1)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	if r.Counter("x", "x") != nil || r.Gauge("x", "x") != nil || r.Histogram("x", "x", nil) != nil {
		t.Fatal("nil registry returned live handles")
	}
	r.GaugeFunc("x", "x", func() float64 { return 1 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "m")
}

func TestUnsortedHistogramBoundsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	r.Histogram("h", "h", []float64{1, 0.5})
}

// TestConcurrentHandles hammers all handle types from many goroutines
// (run with -race) and checks the exact totals — the hot-path
// operations must be both safe and lossless.
func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", []float64{10, 100})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i + 1))
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Load(), workers*perWorker)
	}
	if g.Load() != perWorker {
		t.Errorf("gauge = %d, want %d", g.Load(), perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}
