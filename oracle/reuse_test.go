package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
	"repro/internal/memsys"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// largeTraces generates n executions the size of the benchmark corpus's
// (1 000 operations on 8 threads over the 8 KB layout), SC by
// construction.
func largeTraces(t testing.TB, n int) []*Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	gen, err := testgen.NewGenerator(testgen.Config{Size: 1000, Threads: 8, Layout: memsys.MustLayout(8192, 16)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := checker.NewRecorder(memmodel.SC{})
	var out []*Trace
	for i := 0; i < n; i++ {
		progs, err := testgen.Compile(gen.NewTest())
		if err != nil {
			t.Fatal(err)
		}
		replaySC(rec, progs, rng)
		x := rec.Execution()
		if v := rec.EndIteration(); v != nil {
			t.Fatalf("large trace %d rejected under SC: %v", i, v)
		}
		tr, err := TraceFromExecution(fmt.Sprintf("large-%d", i), x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// reuseSequence is what the reuse tests feed a long-lived Checker: the
// generated golden's traces (valid, invalid and malformed ones — a
// duplicate key, an unknown rf ref, a CO listing a foreign write), the
// litmus classics and two benchmark-sized traces, every trace twice,
// shuffled, then a large trace followed by the smallest ones.
func reuseSequence(t *testing.T) []*Trace {
	t.Helper()
	large := largeTraces(t, 2)
	seq := append(generatedTraces(t), large...)
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range classics {
		seq = append(seq, e.Trace)
	}
	seq = append(seq, seq...)
	rand.New(rand.NewSource(5)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return append(seq, large[0], classics[0].Trace, &Trace{Name: "empty"}, large[1], classics[1].Trace)
}

// answer is what one CheckTrace call returned.
type answer struct {
	v   Verdict
	err string
}

func checkTrace(c *Checker, tr *Trace, i int) answer {
	v, err := c.CheckTrace(tr, i)
	if err != nil {
		return answer{err: err.Error()}
	}
	return answer{v: v}
}

// freshAnswers decides every trace of seq with a Checker of its own.
func freshAnswers(t *testing.T, model string, seq []*Trace) []answer {
	t.Helper()
	out := make([]answer, len(seq))
	malformed := 0
	for i, tr := range seq {
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = checkTrace(c, tr, i)
		if out[i].err != "" {
			malformed++
		}
	}
	if malformed < 6 {
		t.Fatalf("sequence holds %d malformed traces, want several kinds", malformed)
	}
	return out
}

// TestCheckTraceReuseIdentity: one Checker per model fed the whole
// sequence returns, call for call, the Verdict or error of a fresh
// Checker — whatever its builder held from the trace before, valid,
// invalid or malformed, larger or smaller.
func TestCheckTraceReuseIdentity(t *testing.T) {
	seq := reuseSequence(t)
	for _, model := range Models() {
		want := freshAnswers(t, model, seq)
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range seq {
			if got := checkTrace(c, tr, i); got != want[i] {
				t.Fatalf("%s, call %d (%s): reused Checker %+v, fresh %+v", model, i, tr.Name, got, want[i])
			}
		}
	}
}

// TestCheckTraceReuseIdentityShared: the same with two workers — each
// its own Checkers, as Checkers are single-goroutine — sharing one memo
// and one durable store, then again with a new memo over the store the
// first pass filled. Under -race this is also the proof that nothing a
// Checker keeps is reachable from the memo.
func TestCheckTraceReuseIdentityShared(t *testing.T) {
	seq := reuseSequence(t)
	models := Models()
	want := make([][]answer, len(models))
	for mi, model := range models {
		want[mi] = freshAnswers(t, model, seq)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for pass := 0; pass < 2; pass++ {
		opts := Options{Memo: NewMemo(), Store: st}
		// Every Checker is built before any runs: attaching the store to
		// the memo is not synchronized with lookups.
		var workers [2][]*Checker
		for w := range workers {
			for _, model := range models {
				c, err := NewChecker(model, opts)
				if err != nil {
					t.Fatal(err)
				}
				workers[w] = append(workers[w], c)
			}
		}
		var wg sync.WaitGroup
		for w, checkers := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Both workers decide every trace, half a sequence apart,
				// so they meet on the same signatures.
				for k := range seq {
					i := (k + w*len(seq)/2) % len(seq)
					for mi, c := range checkers {
						if got := checkTrace(c, seq[i], i); got != want[mi][i] {
							t.Errorf("pass %d worker %d %s, trace %d (%s): %+v, fresh %+v", pass, w, models[mi], i, seq[i].Name, got, want[mi][i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if d := opts.Memo.Stats(); pass == 1 && d.Durable == 0 {
			t.Errorf("second pass over the filled store: %s, want durable hits", d)
		}
	}
}

// TestGeneratedCorpusReusedMatchesFresh: everything the generated golden
// pins — signature, fast-path answer, Result with witness cycle and
// Detail — comes out of one long-lived Materializer, exact Checker and
// fast pass exactly as it comes out of fresh ones, so the reused path
// reproduces the golden too.
func TestGeneratedCorpusReusedMatchesFresh(t *testing.T) {
	var (
		mat   trace.Materializer
		exact = memmodel.NewChecker(memmodel.WithScratch(memmodel.NewScratch()))
		fast  = fastpath.New()
	)
	for _, tr := range append(largeTraces(t, 1), generatedTraces(t)...) {
		fresh, ferr := tr.Execution()
		reused, rerr := mat.Execution(tr)
		if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
			t.Fatalf("%s: fresh %v, reused %v", tr.Name, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if f, r := Signature(fresh), Signature(reused); f != r {
			t.Fatalf("%s: signature %s fresh, %s reused", tr.Name, f, r)
		}
		for _, name := range Models() {
			arch, _ := ModelByName(name)
			if f, r := fastpath.New().Decide(fresh, arch), fast.Decide(reused, arch); f != r {
				t.Fatalf("%s under %s: fast pass %+v fresh, %+v reused", tr.Name, name, f, r)
			}
			f, r := memmodel.NewChecker().Check(fresh, arch), exact.Check(reused, arch)
			if !reflect.DeepEqual(f, r) {
				t.Fatalf("%s under %s:\n fresh  %+v\n reused %+v", tr.Name, name, f, r)
			}
		}
	}
}

// TestCheckTraceSteadyStateAllocationBudget: once a Checker has seen the
// corpus's shapes, deciding a benchmark-sized trace the durable store
// already knows — signing it from its fields in the Checker's storage, as
// no other Checker has, and building no execution — allocates the memo
// entry and the signature's spelling: a few hundred bytes, where
// rebuilding an execution out of maps took about 746 kB.
func TestCheckTraceSteadyStateAllocationBudget(t *testing.T) {
	traces := largeTraces(t, 8)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	filler, err := NewChecker("TSO", Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if v, err := filler.CheckTrace(tr, i); err != nil || !v.Valid {
			t.Fatalf("filling the store: %+v, %v", v, err)
		}
	}

	// A new memo over the filled store: every first sight of a trace is a
	// durable hit. All but the last three warm the Checker's storage. The
	// filler signed the traces, so the new Checker is handed unsigned
	// copies.
	c, err := NewChecker("TSO", Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	warm := len(traces) - 3
	for i, tr := range traces[:warm] {
		if _, err := c.CheckTrace(clone(tr), i); err != nil {
			t.Fatal(err)
		}
	}
	const maxBytes, maxObjects = 1 << 10, 8
	for i, tr := range traces[warm:] {
		tr = clone(tr)
		durable, decodes := c.Dedupe().Durable, c.Phases().Decode.Count
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.CheckTrace(tr, warm+i)
		runtime.ReadMemStats(&after)
		if err != nil || c.Dedupe().Durable != durable+1 || c.Phases().Decode.Count != decodes {
			t.Fatalf("%s: err %v, %s, %d materializations; want one more durable hit and no materialization",
				tr.Name, err, c.Dedupe(), c.Phases().Decode.Count-decodes)
		}
		bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d B in %d objects", tr.Name, bytes, objects)
		if bytes > maxBytes || objects > maxObjects {
			t.Errorf("%s: a durable-hit CheckTrace allocates %d B in %d objects, budget %d B in %d", tr.Name, bytes, objects, maxBytes, maxObjects)
		}
	}
}

// TestCheckTraceWarmHitAllocatesNothing: a warmed Checker asked again
// for a trace its memo holds valid — signed already, answered by a
// lookup — allocates nothing.
func TestCheckTraceWarmHitAllocatesNothing(t *testing.T) {
	tr := largeTraces(t, 1)[0]
	c, err := NewChecker("TSO", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.CheckTrace(tr, 0)
	if err != nil || !want.Valid {
		t.Fatalf("%+v, %v; want a valid verdict", want, err)
	}
	var got Verdict
	if n := testing.AllocsPerRun(20, func() { got, err = c.CheckTrace(tr, 0) }); n != 0 || err != nil || got != want {
		t.Fatalf("a valid warm hit allocates %.0f objects (want 0) and answers %+v, %v (want %+v)", n, got, err, want)
	}
	if d := c.Dedupe(); d.Hits == 0 || c.Phases().Decode.Count != 1 {
		t.Fatalf("%s, %d materializations; want memo hits on the one materialization deciding it", d, c.Phases().Decode.Count)
	}
}

// TestSignatureDoesNotAllocate: on an execution that has answered
// Threads and Addresses once, a signature is computed in place.
func TestSignatureDoesNotAllocate(t *testing.T) {
	x, err := largeTraces(t, 1)[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	want := Signature(x)
	var got Sig
	if n := testing.AllocsPerRun(20, func() { got = Signature(x) }); n != 0 || got != want {
		t.Fatalf("Signature allocates %.0f objects (want 0) and returns %s (want %s)", n, got, want)
	}
}
