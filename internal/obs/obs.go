// Package obs is the framework's dependency-free observability core:
// atomic counters, gauges and fixed-bucket histograms behind a Registry
// with cheap pre-registered handles (hot paths pay one atomic add),
// plus a phase-span tracer
// (phase.go) whose per-run timing breakdowns aggregate into a
// deterministic, mergeable Snapshot.
//
// Instrumentation never participates in the deterministic result
// surface: counters and spans are wall-clock side channels that ride
// outside fleet.Merged.CanonicalBytes, so an instrumented campaign is
// byte-identical to an uninstrumented one.
//
// Every handle type is nil-safe — methods on a nil *Counter, *Gauge,
// *Histogram or *PhaseStats are no-ops — so call sites need no "is obs
// on?" branches of their own.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are upper bucket edges
// in ascending order, with an implicit +Inf bucket at the end. Observe
// is lock-free (one atomic add into the bucket, one into the count, a
// CAS-loop float add into the sum).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
}

// Observe records one value. Non-finite values are dropped — NaN in a
// histogram sum would poison the /metrics exposition.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind is the Prometheus family type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a family. Exactly one of the value
// sources is set.
type series struct {
	labels  string // rendered {k="v",...}, or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration (Counter/Gauge/Histogram/
// GaugeFunc) is meant for setup time — callers keep the returned
// handles; only the handle operations are hot-path safe.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// renderLabels turns ("k","v",...) pairs into a canonical {k="v",...}
// string. Pairs are rendered in the order given (callers pass a fixed
// order, so equal label sets produce equal keys).
func renderLabels(labelPairs []string) string {
	if len(labelPairs) == 0 {
		return ""
	}
	if len(labelPairs)%2 != 0 {
		panic("obs: label pairs must be key,value,...")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labelPairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labelPairs[i], labelPairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the family's series for the given labels, creating
// family and series as needed. Re-registering the same (name, labels)
// returns the existing series, so handles are shared rather than
// shadowed.
func (r *Registry) register(name, help string, kind metricKind, labelPairs []string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	key := renderLabels(labelPairs)
	if sr := f.byKey[key]; sr != nil {
		return sr
	}
	sr := &series{labels: key}
	f.byKey[key] = sr
	f.series = append(f.series, sr)
	sort.Slice(f.series, func(a, b int) bool { return f.series[a].labels < f.series[b].labels })
	return sr
}

// Counter registers (or fetches) a counter series. labelPairs is an
// optional key,value,... sequence.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	sr := r.register(name, help, kindCounter, labelPairs)
	if sr == nil {
		return nil
	}
	if sr.counter == nil {
		sr.counter = &Counter{}
	}
	return sr.counter
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	sr := r.register(name, help, kindGauge, labelPairs)
	if sr == nil {
		return nil
	}
	if sr.gauge == nil {
		sr.gauge = &Gauge{}
	}
	return sr.gauge
}

// GaugeFunc registers a gauge series whose value is read at scrape time
// — the fit for values the owner already maintains under its own lock
// (queue depth, outstanding leases). fn must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if sr := r.register(name, help, kindGauge, labelPairs); sr != nil {
		sr.fn = fn
	}
}

// Histogram registers (or fetches) a histogram series with the given
// ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	sr := r.register(name, help, kindHistogram, labelPairs)
	if sr == nil {
		return nil
	}
	if sr.hist == nil {
		sr.hist = &Histogram{bounds: append([]float64(nil), bounds...)}
		sr.hist.buckets = make([]atomic.Uint64, len(bounds)+1)
	}
	return sr.hist
}

// formatValue renders a sample value for the text exposition. NaN and
// ±Inf are clamped to 0: the format has spellings for them, but a NaN
// scrape poisons rate() math downstream and usually means a ratio over
// a zero total — 0 is the value every such ratio is defined to here
// (stats.Ratio), so the exposition enforces it too.
func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition
// format, families and series in sorted order so scrapes are
// reproducible.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, sr := range f.series {
			if err := writeSeries(w, f, sr); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, sr *series) error {
	switch {
	case sr.hist != nil:
		// Cumulative buckets, then sum and count, per the exposition
		// spec. The histogram's own labels are merged with le.
		cum := uint64(0)
		for i, bound := range sr.hist.bounds {
			cum += sr.hist.buckets[i].Load()
			if err := writeSample(w, f.name+"_bucket", mergeLE(sr.labels, formatValue(bound)), formatUint(cum)); err != nil {
				return err
			}
		}
		cum += sr.hist.buckets[len(sr.hist.bounds)].Load()
		if err := writeSample(w, f.name+"_bucket", mergeLE(sr.labels, "+Inf"), formatUint(cum)); err != nil {
			return err
		}
		if err := writeSample(w, f.name+"_sum", sr.labels, formatValue(sr.hist.Sum())); err != nil {
			return err
		}
		return writeSample(w, f.name+"_count", sr.labels, formatUint(sr.hist.Count()))
	case sr.fn != nil:
		return writeSample(w, f.name, sr.labels, formatValue(sr.fn()))
	case sr.counter != nil:
		return writeSample(w, f.name, sr.labels, formatUint(sr.counter.Load()))
	case sr.gauge != nil:
		return writeSample(w, f.name, sr.labels, strconv.FormatInt(sr.gauge.Load(), 10))
	default:
		return nil
	}
}

func writeSample(w io.Writer, name, labels, value string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, value)
	return err
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// mergeLE splices an le label into an existing rendered label set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}
