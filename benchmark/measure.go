package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/stats"
)

// metricValue is one reported metric: the median over Reps samples and
// their spread, the interquartile range as a share of the median
// (quartiles as Python's statistics.quantiles(n=4) gives them, which
// for three samples is max − min).
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Reps   int     `json:"reps"`
	Spread float64 `json:"spread"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name        string `json:"name"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	Fingerprint string `json:"fingerprint"`
	// TracedFingerprint is the traced pass's output digest; it must
	// equal Fingerprint (tracing is a side channel).
	TracedFingerprint string                 `json:"traced_fingerprint,omitempty"`
	Notes             []string               `json:"notes,omitempty"`
	EndToEnd          map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer          map[string]metricValue `json:"per_layer,omitempty"`
}

// FailedOpShare is failed ÷ attempted ops.
func (r workloadResult) FailedOpShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *workloadResult) absorb(o outcome, want string) {
	r.Attempted += o.Attempted
	failed := o.Failed
	if want != "" && o.Fingerprint != want {
		failed = o.Attempted
		o.Notes = append(o.Notes, fmt.Sprintf("fingerprint %s differs from reference %s", short(o.Fingerprint), short(want)))
	}
	r.Failed += failed
	for _, n := range o.Notes {
		if len(r.Notes) < 8 {
			r.Notes = append(r.Notes, n)
		}
	}
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// budget bounds the timed region: repetitions run until Seconds have
// elapsed, and at least MinReps of them.
type budget struct {
	Seconds float64
	MinReps int
}

func (b budget) more(start time.Time, done int) bool {
	return done < b.MinReps || time.Since(start).Seconds() < b.Seconds
}

// percentile returns the p-quantile of xs (0 < p < 1) the way Python's
// statistics.quantiles does: interpolated at position p·(n+1), clamped
// to the ends.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p*float64(len(s)+1) - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return s[0]
	case lo >= len(s)-1:
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func summarize(xs []float64, unit string) metricValue {
	m := stats.Median(xs)
	v := metricValue{Value: m, Unit: unit, Reps: len(xs)}
	if m != 0 && len(xs) > 1 {
		v.Spread = (percentile(xs, 0.75) - percentile(xs, 0.25)) / math.Abs(m)
	}
	return v
}

// pairedRatio estimates b/a from order-alternating pairs: each pair
// yields one ratio and the estimate is their median, so drift that hits
// both halves of a pair cancels and a preempted round is discarded.
// a and b return the quantity compared (CPU or wall seconds); pairs run
// while more(done) holds. A pair with a failed half (0) is dropped.
func pairedRatio(more func(done int) bool, a, b func() float64) float64 {
	var ratios []float64
	for i := 0; more(i); i++ {
		var x, y float64
		if i%2 == 0 {
			x = a()
			y = b()
		} else {
			y = b()
			x = a()
		}
		if x > 0 && y > 0 {
			ratios = append(ratios, y/x)
		}
	}
	return stats.Median(ratios)
}

// meter reads the process-wide cost counters around one repetition.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: processCPUTime(), alloc: ms.TotalAlloc}
}

func (m meter) stop() (wallS, cpuS, allocBytes float64) {
	wall := time.Since(m.wall)
	cpu := processCPUTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall.Seconds(), cpu.Seconds(), float64(ms.TotalAlloc - m.alloc)
}

// setUp runs the workload's set-up n times and keeps the last instance;
// setup_s is the median duration. Each set-up gets its own scratch
// directory under dir.
func setUp(w workload, seed int64, sz sizes, dir string, n int) (instance, metricValue, error) {
	var (
		inst  instance
		times []float64
	)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("%s-setup%d", w.Name, i))
		if err := os.RemoveAll(sub); err != nil {
			return nil, metricValue{}, err
		}
		runtime.GC()
		t0 := time.Now()
		next, err := w.prepare(seed, sz, sub)
		if err != nil {
			return nil, metricValue{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = next
	}
	return inst, summarize(times, "s"), nil
}

// measureEndToEnd follows the run protocol with tracing off: timed
// set-up, one untimed warm-up repetition that fixes the reference
// fingerprint, then timed repetitions of fixed work; every metric is
// the median over repetitions.
func measureEndToEnd(w workload, seed int64, sz sizes, b budget, dir string) (workloadResult, error) {
	res := workloadResult{Name: w.Name}
	inst, setup, err := setUp(w, seed, sz, dir, w.SetupReps)
	if err != nil {
		return res, err
	}
	defer inst.close()

	warm := inst.rep()
	res.Fingerprint = warm.Fingerprint
	res.absorb(warm, "")

	var opsPerS, cpuMs, allocKB []float64
	start := time.Now()
	for b.more(start, len(opsPerS)) {
		m := startMeter()
		o := inst.rep()
		wall, cpu, alloc := m.stop()
		res.absorb(o, res.Fingerprint)
		ops := float64(o.Attempted)
		opsPerS = append(opsPerS, ops/wall)
		cpuMs = append(cpuMs, 1e3*cpu/ops)
		allocKB = append(allocKB, alloc/1e3/ops)
	}
	res.EndToEnd = map[string]metricValue{
		"ops_per_s":       summarize(opsPerS, "1/s"),
		"cpu_ms_per_op":   summarize(cpuMs, "ms"),
		"alloc_kb_per_op": summarize(allocKB, "kB"),
		"setup_s":         setup,
	}
	return res, nil
}

// measurePerLayer runs the separate traced pass: one untraced warm-up
// repetition for the reference fingerprint, then order-alternating
// pairs of an untraced and a traced repetition until the budget is
// spent, then the single-layer kernels. Timing metrics are medians over
// the traced repetitions (exact counts are identical in each), and the
// paired CPU-time ratio of the two sides is the tracing overhead.
func measurePerLayer(w workload, seed int64, sz sizes, b budget, dir string, log *spanLog) (workloadResult, error) {
	res := workloadResult{Name: w.Name}
	inst, _, err := setUp(w, seed, sz, dir, 1)
	if err != nil {
		return res, err
	}
	defer inst.close()

	warm := inst.rep()
	res.Fingerprint = warm.Fingerprint
	res.absorb(warm, "")

	samples := map[string][]float64{}
	add := func(lm layerMetrics) {
		for _, d := range perLayer {
			if v, ok := lm[d.Name]; ok {
				samples[d.Name] = append(samples[d.Name], v)
			}
		}
	}
	// A pair is two repetitions, so one pair is the floor here.
	pairs := budget{Seconds: b.Seconds, MinReps: 1}
	start := time.Now()
	overhead := pairedRatio(
		func(done int) bool { return pairs.more(start, done) },
		func() float64 {
			m := startMeter()
			o := inst.rep()
			_, cpu, _ := m.stop()
			res.absorb(o, res.Fingerprint)
			return cpu
		},
		func() float64 {
			m := startMeter()
			o, lm := inst.traced(log)
			_, cpu, _ := m.stop()
			res.TracedFingerprint = o.Fingerprint
			res.absorb(o, res.Fingerprint)
			add(lm)
			return cpu
		})
	if overhead > 0 {
		add(layerMetrics{"obs.overhead_share": overhead - 1})
	}
	add(inst.kernels())

	res.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		res.PerLayer[d.Name] = summarize(samples[d.Name], d.Unit)
	}
	return res, nil
}

// gcWatch samples the Go runtime across a traced repetition.
type gcWatch struct {
	cycles  uint32
	pauseNs uint64
	peak    uint64
}

func startGCWatch() *gcWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &gcWatch{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, peak: ms.HeapInuse}
}

// sample notes the heap in use; call it at coarse boundaries (an item,
// a batch of traces, a campaign), not per operation.
func (g *gcWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > g.peak {
		g.peak = ms.HeapInuse
	}
}

func (g *gcWatch) report(lm layerMetrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > g.peak {
		g.peak = ms.HeapInuse
	}
	lm["runtime.gc_cycles"] = float64(ms.NumGC - g.cycles)
	lm["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-g.pauseNs) / 1e6
	lm["runtime.heap_inuse_peak_mb"] = float64(g.peak) / (1 << 20)
}
