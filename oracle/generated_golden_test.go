package oracle

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
	"repro/internal/memsys"
	"repro/internal/relation"
	"repro/internal/testgen"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/generated_golden.json")

const generatedGoldenPath = "testdata/generated_golden.json"

// goldenResult is one model's exact Result, witness included.
type goldenResult struct {
	Valid  bool               `json:"valid"`
	Kind   string             `json:"kind,omitempty"`
	Cycle  []relation.EventID `json:"cycle,omitempty"`
	Detail string             `json:"detail,omitempty"`
}

// goldenTrace is everything observable about one generated trace: the
// materialisation error, or the signature, each model's fast-path answer
// and each model's Result.
type goldenTrace struct {
	Name    string                  `json:"name"`
	Err     string                  `json:"err,omitempty"`
	Events  int                     `json:"events,omitempty"`
	Sig     string                  `json:"sig,omitempty"`
	Fast    map[string]string       `json:"fast,omitempty"`
	Results map[string]goldenResult `json:"results,omitempty"`
}

// generatedTraces builds the golden's inputs: per seed, random tests
// with an RMW- and fence-heavy mix on a small memory, one seeded SC
// interleaving each replayed into checker.Recorder (the benchmark
// corpus's construction), then mutated by position in the list — some
// left alone, some with two coherence-adjacent writes swapped, some with
// a read re-pointed at another write of its address, some malformed.
func generatedTraces(t *testing.T) []*Trace {
	t.Helper()
	var out []*Trace
	for _, seed := range []int64{11, 4242} {
		rng := rand.New(rand.NewSource(seed))
		gen, err := testgen.NewGenerator(testgen.Config{
			Size: 72, Threads: 4, Layout: memsys.MustLayout(192, 16),
			Bias: []testgen.Bias{
				{Kind: testgen.OpRead, Weight: 38}, {Kind: testgen.OpReadAddrDp, Weight: 4},
				{Kind: testgen.OpWrite, Weight: 38}, {Kind: testgen.OpRMW, Weight: 8},
				{Kind: testgen.OpFence, Weight: 8}, {Kind: testgen.OpDelay, Weight: 4},
			},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		rec := checker.NewRecorder(memmodel.SC{})
		for i := 0; i < 24; i++ {
			progs, err := testgen.Compile(gen.NewTest())
			if err != nil {
				t.Fatal(err)
			}
			replaySC(rec, progs, rng)
			x := rec.Execution()
			if v := rec.EndIteration(); v != nil {
				t.Fatalf("seed %d test %d: SC replay rejected: %v", seed, i, v)
			}
			tr, err := TraceFromExecution("", x)
			if err != nil {
				t.Fatal(err)
			}
			tr.Name = fmt.Sprintf("s%d-%d-%s", seed, i, mutate(tr, len(out), rng))
			out = append(out, tr)
		}
	}
	return out
}

// replaySC executes one random interleaving of progs against a single
// memory, reporting every access to rec the way the simulated cores do.
func replaySC(rec *checker.Recorder, progs []testgen.Program, rng *rand.Rand) {
	var schedule []int
	for tid, p := range progs {
		for range p {
			schedule = append(schedule, tid)
		}
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	mem := map[memsys.Addr]uint64{}
	next := make([]int, len(progs))
	for _, tid := range schedule {
		idx := next[tid]
		next[tid]++
		in := &progs[tid][idx]
		word := in.Addr.WordAddr()
		switch in.Kind {
		case testgen.OpRead, testgen.OpReadAddrDp:
			rec.CommitRead(tid, idx, 0, in.Addr, mem[word], false)
		case testgen.OpWrite:
			mem[word] = in.WriteID
			rec.CommitWrite(tid, idx, 0, in.Addr, in.WriteID, false)
			rec.WriteSerialized(tid, idx, 0, in.Addr, in.WriteID)
		case testgen.OpRMW:
			rec.CommitRead(tid, idx, 0, in.Addr, mem[word], true)
			mem[word] = in.WriteID
			rec.CommitWrite(tid, idx, 1, in.Addr, in.WriteID, true)
			rec.WriteSerialized(tid, idx, 1, in.Addr, in.WriteID)
		case testgen.OpFence:
			rec.CommitFence(tid, idx, 0, in.Fence)
		}
	}
}

// mutate rewrites tr in place according to its position i in the whole
// list and names what it did.
func mutate(tr *Trace, i int, rng *rand.Rand) string {
	switch i % 8 {
	case 0, 1, 2:
		return "asis"
	case 3, 4:
		return coSwap(tr, rng)
	case 5, 6:
		return rfRedirect(tr, rng, true)
	}
	switch (i / 8) % 5 {
	case 0:
		return rfRedirect(tr, rng, false)
	case 1:
		c := &tr.CO[rng.Intn(len(tr.CO))]
		c.Writes = c.Writes[:len(c.Writes)-1]
		return "codrop"
	case 2:
		e := &tr.RF[rng.Intn(len(tr.RF))]
		e.Read.Instr += 1 << 20
		return "rfunknown"
	case 3:
		// Two ops of one thread pinned to the same key.
		for ti := range tr.Threads {
			if ops := tr.Threads[ti].Ops; len(ops) >= 2 {
				ops[len(ops)-1].Keyed, ops[len(ops)-1].Instr, ops[len(ops)-1].Sub = true, 0, 0
				ops[0].Keyed, ops[0].Instr, ops[0].Sub = true, 0, 0
				break
			}
		}
		return "dupkey"
	default:
		// A coherence order listing a write to another address.
		a, b := &tr.CO[0], &tr.CO[len(tr.CO)-1]
		a.Writes[0] = b.Writes[0]
		return "coforeign"
	}
}

// coSwap exchanges two adjacent writes of one coherence order.
func coSwap(tr *Trace, rng *rand.Rand) string {
	var multi []int
	for ci := range tr.CO {
		if len(tr.CO[ci].Writes) >= 2 {
			multi = append(multi, ci)
		}
	}
	if len(multi) == 0 {
		return "asis"
	}
	w := tr.CO[multi[rng.Intn(len(multi))]].Writes
	k := rng.Intn(len(w) - 1)
	w[k], w[k+1] = w[k+1], w[k]
	return "coswap"
}

// findOp returns the op of thread tid at instruction index instr,
// walking keys the way the trace format assigns them (an RMW is one op
// holding both halves).
func findOp(tr *Trace, tid, instr int) *trace.Op {
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		if th.TID != tid {
			continue
		}
		next := 0
		for oi := range th.Ops {
			o := &th.Ops[oi]
			at := next
			if o.Keyed {
				at = o.Instr
			}
			next = max(next, at+1)
			if at == instr {
				return o
			}
		}
	}
	return nil
}

// rfRedirect re-points one read at a different write of its address. With
// fix the read's value follows its new source (a well-formed execution
// that usually violates coherence); without, it keeps the stale value (a
// malformed one).
func rfRedirect(tr *Trace, rng *rand.Rand, fix bool) string {
	for attempt := 0; attempt < 64; attempt++ {
		e := &tr.RF[rng.Intn(len(tr.RF))]
		read := findOp(tr, e.Read.TID, e.Read.Instr)
		if read == nil {
			continue
		}
		for ci := range tr.CO {
			c := &tr.CO[ci]
			if c.Addr != read.Addr || len(c.Writes) < 2 {
				continue
			}
			w := c.Writes[rng.Intn(len(c.Writes))]
			if !e.Init && w == e.Write {
				continue
			}
			src := findOp(tr, w.TID, w.Instr)
			if src == nil {
				continue
			}
			val := src.Value
			if src.Kind == trace.OpRMW {
				val = src.Value2
			}
			e.Init, e.Write = false, w
			if fix {
				read.Value = val
				return "rfmove"
			}
			return "rfstale"
		}
	}
	return "asis"
}

// loadGolden reads the recorded generated golden.
func loadGolden(t *testing.T) []goldenTrace {
	t.Helper()
	data, err := os.ReadFile(generatedGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with: go test ./oracle -run TestGeneratedCorpusGolden -update)", err)
	}
	var golden []goldenTrace
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// observe records everything the golden pins about one trace, decided
// on an execution of its own by the exact procedure.
func observe(t *testing.T, tr *Trace) goldenTrace {
	t.Helper()
	g := goldenTrace{Name: tr.Name}
	x, err := tr.Execution()
	if err != nil {
		g.Err = err.Error()
		return g
	}
	sig := Signature(x)
	g.Events = x.NumEvents()
	g.Sig = sig.String()
	g.Fast = map[string]string{}
	g.Results = map[string]goldenResult{}
	exact := memmodel.NewChecker(memmodel.WithScratch(memmodel.NewScratch()))
	fast := fastpath.New()
	for _, name := range Models() {
		arch, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v := fast.Decide(x, arch)
		g.Fast[name] = v.Outcome.String() + "/" + v.Kind.String()
		res := exact.Check(x, arch)
		gr := goldenResult{Valid: res.Valid, Cycle: res.Cycle, Detail: res.Detail}
		if !res.Valid {
			gr.Kind = res.Kind.String()
		}
		g.Results[name] = gr
	}
	return g
}

// TestGeneratedCorpusGolden pins, for seeded generated executions and
// their rf/co mutations, every signature, fast-path answer, verdict,
// witness cycle and Detail string — first on executions materialised
// fresh per trace, then through one long-lived Checker per model fed the
// whole list, which must answer exactly the same.
func TestGeneratedCorpusGolden(t *testing.T) {
	traces := generatedTraces(t)
	got := make([]goldenTrace, len(traces))
	invalid, malformed, atomics, fences := 0, 0, 0, 0
	for i, tr := range traces {
		got[i] = observe(t, tr)
		if got[i].Err != "" {
			malformed++
		} else if !got[i].Results["SC"].Valid {
			invalid++
		}
		for _, th := range tr.Threads {
			for _, op := range th.Ops {
				switch op.Kind {
				case trace.OpRMW:
					atomics++
				case trace.OpFence:
					fences++
				}
			}
		}
	}
	t.Logf("%d traces: %d invalid under SC, %d malformed, %d RMWs, %d fences", len(traces), invalid, malformed, atomics, fences)
	if invalid < len(traces)/4 || malformed == 0 || atomics == 0 || fences == 0 {
		t.Fatalf("generated corpus lost its shapes: %d traces, %d invalid, %d malformed, %d RMWs, %d fences",
			len(traces), invalid, malformed, atomics, fences)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(generatedGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := loadGolden(t)
	if len(got) != len(want) {
		t.Fatalf("generated %d traces, golden holds %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trace %d (%s):\n got  %+v\n want %+v", i, traces[i].Name, got[i], want[i])
		}
	}

	// The same list through one Checker per model, in order: whatever a
	// Checker keeps from one trace to the next must not show.
	for _, model := range Models() {
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			v, err := c.CheckTrace(tr, i)
			if err != nil {
				if err.Error() != want[i].Err {
					t.Errorf("%s under %s: CheckTrace error %q, golden %q", tr.Name, model, err, want[i].Err)
				}
				continue
			}
			res := want[i].Results[model]
			if want[i].Err != "" || v.Sig != want[i].Sig || v.Valid != res.Valid || v.Kind != res.Kind || v.Detail != res.Detail {
				t.Errorf("%s under %s: CheckTrace %+v, golden %+v (err %q, sig %s)", tr.Name, model, v, res, want[i].Err, want[i].Sig)
			}
		}
	}
}

// TestSignTraceMatchesExecution: the generated corpus — valid, invalid
// and malformed — and the litmus classics signed from their fields agree
// with their built executions whenever the walk answers; the unmutated
// generated traces and the classics, as traces and after a text and a
// binary round trip, all sign without building.
func TestSignTraceMatchesExecution(t *testing.T) {
	var canonical []*Trace
	var m trace.Materializer
	for _, tr := range generatedTraces(t) {
		x, err := tr.Execution()
		if sig, ok := m.Sign(tr); ok && err == nil && sig != Signature(x) {
			t.Errorf("%s: signed %s from its fields, %s from its execution", tr.Name, sig, Signature(x))
		}
		if strings.HasSuffix(tr.Name, "asis") {
			canonical = append(canonical, tr)
		}
	}
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range classics {
		canonical = append(canonical, e.Trace)
	}
	var text, bin bytes.Buffer
	if err := WriteTraces(&text, canonical...); err != nil {
		t.Fatal(err)
	}
	if err := WriteTracesBinary(&bin, canonical...); err != nil {
		t.Fatal(err)
	}
	fromText, err := DecodeTraces(&text)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeTracesBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]*Trace{canonical, fromText, fromBin} {
		for _, tr := range set {
			x, err := tr.Execution()
			if err != nil {
				t.Fatalf("%s: %v", tr.Name, err)
			}
			if sig, ok := m.Sign(tr); !ok || sig != Signature(x) {
				t.Errorf("%s: signed %s, %v from its fields; want %s directly", tr.Name, sig, ok, Signature(x))
			}
		}
	}
}
