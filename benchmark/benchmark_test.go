package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// tinySizes keeps every workload's shape and shrinks every count, so
// the whole set runs in seconds. No timing is asserted at these sizes.
var tinySizes = sizes{
	TestOps: 32, Iterations: 2, Population: 4,
	FastRuns: 3, ExactRuns: 3, ExactSamples: 1,
	CorpusTraces: 4, TraceOps: 64,
	ServiceSamples: 1, CampaignsPerRep: 2,
	KernelIters: 3, Pairs: 1,
}

// runTiny runs both passes of every workload at tiny counts.
func runTiny(t *testing.T, seed int64) map[string]workloadResult {
	t.Helper()
	b := budget{Seconds: 0, MinReps: 2}
	dir := t.TempDir()
	out := map[string]workloadResult{}
	for _, w := range workloads {
		res, err := measureEndToEnd(w, seed, tinySizes, b, dir)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := measurePerLayer(w, seed, tinySizes, b, dir, newSpanLog())
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || layers.Failed != 0 {
			t.Errorf("%s seed %d: failed ops: %v %v", w.Name, seed, res.Notes, layers.Notes)
		}
		if res.Attempted == 0 || layers.Attempted == 0 {
			t.Errorf("%s: no ops attempted", w.Name)
		}
		if layers.Fingerprint != res.Fingerprint || layers.TracedFingerprint != res.Fingerprint {
			t.Errorf("%s: fingerprints differ between passes: %s, %s, traced %s",
				w.Name, res.Fingerprint, layers.Fingerprint, layers.TracedFingerprint)
		}
		res.PerLayer = layers.PerLayer
		out[w.Name] = res
	}
	return out
}

func TestSmoke(t *testing.T) {
	first, again, other := runTiny(t, 1), runTiny(t, 1), runTiny(t, 2)
	for _, w := range workloads {
		a, b, c := first[w.Name], again[w.Name], other[w.Name]
		if a.Fingerprint == "" || a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: fingerprint not repeatable at one seed: %q vs %q", w.Name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == c.Fingerprint {
			t.Errorf("%s: fingerprint did not change with the seed", w.Name)
		}
		for _, d := range perLayer {
			if d.Exact && a.PerLayer[d.Name].Value != b.PerLayer[d.Name].Value {
				t.Errorf("%s: exact count %s differs at one seed: %v vs %v",
					w.Name, d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value)
			}
		}
	}
	// Text and binary encodings of one corpus decide identically.
	if c, w := first["oracle-cold"], first["oracle-warm"]; c.Fingerprint != w.Fingerprint {
		t.Errorf("cold and warm verdict streams differ: %s vs %s", c.Fingerprint, w.Fingerprint)
	}
	// The traced passes show which layers each workload loads.
	if v := first["sweep-fast"].PerLayer["fastpath.conclusive_share"].Value; v != 1 {
		t.Errorf("sweep-fast: fastpath.conclusive_share = %v, want 1", v)
	}
	if v := first["sweep-exact"].PerLayer["fastpath.conclusive_share"].Value; v != 0 {
		t.Errorf("sweep-exact: fastpath.conclusive_share = %v, want 0", v)
	}
	if v := first["oracle-cold"].PerLayer["oracle.durable_hits"].Value; v != 0 {
		t.Errorf("oracle-cold: oracle.durable_hits = %v, want 0", v)
	}
	warm := first["oracle-warm"].PerLayer
	if hits, checks := warm["oracle.durable_hits"].Value+warm["oracle.memo_hits"].Value, warm["checker.checks"].Value; hits != checks || checks == 0 {
		t.Errorf("oracle-warm: %v tier hits for %v checks", hits, checks)
	}
}

// TestNamesMatchBenchmarkJSON holds the program's tables to the
// contract file: the workloads, and each metric's name, unit, direction
// and bound, in what the driver line emits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.Name, w.Why)
		}
	}
	for _, group := range []struct {
		defs []metricDef
		want []metric
	}{{endToEnd, contract.EndToEnd}, {perLayer, contract.PerLayer}} {
		var emitted []metric
		vals := map[string]metricValue{}
		for _, d := range group.defs {
			vals[d.Name] = metricValue{Unit: d.Unit}
			emitted = append(emitted, metric{d.Name, d.Unit, d.Better, d.Bound})
		}
		if !reflect.DeepEqual(emitted, group.want) {
			t.Errorf("metric tables differ:\nprogram        %+v\nBENCHMARK.json %+v", emitted, group.want)
		}
		line, err := json.Marshal(driverLine(workloadResult{Attempted: 1}, vals, group.defs))
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		if len(parsed.Metrics) != len(group.want) {
			t.Errorf("driver line carries %d metrics, BENCHMARK.json lists %d", len(parsed.Metrics), len(group.want))
		}
		for _, m := range group.want {
			if parsed.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("driver line: metric %s has unit %q, want %q", m.Name, parsed.Metrics[m.Name].Unit, m.Unit)
			}
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(opsPerS float64, failed int) report {
		vals := map[string]metricValue{}
		for _, d := range endToEnd {
			vals[d.Name] = metricValue{Value: 1, Unit: d.Unit, Reps: 3, Spread: 0.01}
		}
		vals["ops_per_s"] = metricValue{Value: opsPerS, Unit: "1/s", Reps: 3, Spread: 0.01}
		return report{Seed: 1, Workloads: []workloadResult{{
			Name: "sweep-fast", Attempted: 10, Failed: failed, Fingerprint: "f", EndToEnd: vals,
		}}}
	}
	bound := endToEnd[0].Bound // ops_per_s
	base := mk(100, 0)
	if err := compareReports(base, mk(100*(1-bound/2), 0), false); err != nil {
		t.Errorf("half the bound slower is not a regression: %v", err)
	}
	if err := compareReports(base, mk(100*(1-2*bound), 0), false); err == nil {
		t.Error("twice the bound slower passed")
	}
	if err := compareReports(base, mk(100, 1), false); err == nil {
		t.Error("a new failed op passed")
	}
	noisy := mk(100*(1-2*bound), 0)
	v := noisy.Workloads[0].EndToEnd["ops_per_s"]
	v.Spread = 0.5
	noisy.Workloads[0].EndToEnd["ops_per_s"] = v
	if err := compareReports(base, noisy, false); err != nil {
		t.Errorf("a metric whose spread exceeds its bound is unresolved, not regressed: %v", err)
	}
	elsewhere := mk(100, 0)
	elsewhere.Host.CPUModel = "another"
	if err := compareReports(base, elsewhere, false); err == nil {
		t.Error("unlike hosts were compared")
	}
}
