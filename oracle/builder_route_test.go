package oracle

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
)

// withoutResolvedRF returns a copy of tr without each rf edge that value
// resolution answers the same way — from the initial write for a read of
// 0, from the one write of its address storing the value read otherwise
// — and how many it dropped. The copy builds the same execution, but it
// lacks an edge per read, so it is not of the canonical shape: it is
// signed through its execution and built by the memmodel.Builder.
func withoutResolvedRF(tr *Trace) (*Trace, int) {
	type access struct {
		addr  memsys.Addr
		value uint64
	}
	reads := map[trace.Ref]access{}
	writes := map[trace.Ref]access{}
	stores := map[access]int{}
	for _, th := range tr.Threads {
		var next int32
		for _, op := range th.Ops {
			ref := trace.Ref{TID: th.TID, Instr: next}
			if op.Keyed {
				ref.Instr, ref.Sub = op.Instr, op.Sub
			}
			next = max(next, ref.Instr+1)
			switch op.Kind {
			case trace.OpRead:
				reads[ref] = access{op.Addr, op.Value}
			case trace.OpWrite:
				writes[ref] = access{op.Addr, op.Value}
				stores[writes[ref]]++
			case trace.OpRMW:
				ref.Sub = 0
				reads[ref] = access{op.Addr, op.Value}
				ref.Sub = 1
				writes[ref] = access{op.Addr, op.Value2}
				stores[writes[ref]]++
			}
		}
	}
	out := &Trace{Name: tr.Name, Threads: tr.Threads, CO: tr.CO}
	dropped := 0
	for _, e := range tr.RF {
		r, ok := reads[e.Read]
		if ok && (e.Init && r.value == 0 || !e.Init && writes[e.Write] == r && stores[r] == 1) {
			dropped++
			continue
		}
		out.RF = append(out.RF, e)
	}
	return out, dropped
}

// builderRouted is traces with their value-resolved rf edges dropped,
// each checked to leave the canonical shape. A trace with no such edge
// (one without reads, as 2+2W) lists its co orders in descending address
// order instead, which the Builder takes as it takes any order.
func builderRouted(t *testing.T, traces []*Trace) []*Trace {
	t.Helper()
	var m trace.Materializer
	out := make([]*Trace, len(traces))
	for i, tr := range traces {
		var n int
		out[i], n = withoutResolvedRF(tr)
		if n == 0 {
			out[i].CO = slices.Clone(tr.CO)
			slices.Reverse(out[i].CO)
		}
		if _, ok := m.Sign(out[i]); ok {
			t.Fatalf("%s: still signed from its fields (%d rf edges dropped)", tr.Name, n)
		}
	}
	return out
}

// TestGoldensThroughBuilder: the litmus classics and the generated
// golden's traces, every one of them canonical, decided once more with
// the rf edges value resolution answers dropped (or their co orders
// reversed) — so that they are signed through their executions and
// built by the Builder — give the
// verdicts ci/oracle_golden.json and testdata/generated_golden.json
// record, signature, Kind and Detail included, and the same errors.
func TestGoldensThroughBuilder(t *testing.T) {
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	litmus := make([]*Trace, len(classics))
	for i, e := range classics {
		litmus[i] = e.Trace
	}
	data, err := os.ReadFile("../ci/oracle_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []Verdict
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var v Verdict
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if len(want) != len(litmus)*len(Models()) {
		t.Fatalf("%d golden verdicts for %d classics", len(want), len(litmus))
	}
	checkers := map[string]*Checker{}
	for _, model := range Models() {
		if checkers[model], err = NewChecker(model, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range want {
		got, err := checkers[w.Model].CheckTrace(builderRouted(t, litmus[w.Index:w.Index+1])[0], w.Index)
		if err != nil || got != w {
			t.Errorf("%s under %s: %+v (%v), golden %+v", w.Name, w.Model, got, err, w)
		}
	}

	generated := builderRouted(t, generatedTraces(t))
	golden := loadGolden(t)
	if len(generated) != len(golden) {
		t.Fatalf("generated %d traces, golden holds %d", len(generated), len(golden))
	}
	for _, model := range Models() {
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range generated {
			g := golden[i]
			v, err := c.CheckTrace(tr, i)
			if err != nil || g.Err != "" {
				if err == nil || err.Error() != g.Err {
					t.Errorf("%s under %s: error %v, golden %q", tr.Name, model, err, g.Err)
				}
				continue
			}
			res := g.Results[model]
			if v.Sig != g.Sig || v.Valid != res.Valid || v.Kind != res.Kind || v.Detail != res.Detail {
				t.Errorf("%s under %s: %+v, golden %+v (sig %s)", tr.Name, model, v, res, g.Sig)
			}
		}
	}
}
