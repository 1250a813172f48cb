package oracle

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// identityCorpus is what the shared-identity tests decide: the generated
// golden's traces (valid, invalid and malformed) and the litmus classics,
// built anew on every call so no trace arrives already signed.
func identityCorpus(t *testing.T) []*Trace {
	t.Helper()
	traces := generatedTraces(t)
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range classics {
		traces = append(traces, e.Trace)
	}
	return traces
}

// clone is tr as a trace no Checker has signed. The two share their
// slices, which neither writes.
func clone(tr *Trace) *Trace {
	return &Trace{Name: tr.Name, Threads: tr.Threads, RF: tr.RF, CO: tr.CO}
}

// newCheckers builds one Checker per model for each of n workers, all
// before any runs: attaching a store to the memo is not synchronized with
// lookups.
func newCheckers(t *testing.T, n int, opts Options) [][]*Checker {
	t.Helper()
	workers := make([][]*Checker, n)
	for w := range workers {
		for _, model := range Models() {
			c, err := NewChecker(model, opts)
			if err != nil {
				t.Fatal(err)
			}
			workers[w] = append(workers[w], c)
		}
	}
	return workers
}

// answerStream renders [trace][model] answers as the NDJSON stream
// cmd/check would print, errors inline.
func answerStream(t *testing.T, answers [][]answer) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range answers {
		for _, a := range row {
			if err := enc.Encode(a.v); err != nil {
				t.Fatal(err)
			}
			buf.WriteString(a.err + "\n")
		}
	}
	return buf.Bytes()
}

// sequentialAnswers decides traces with one Checker per model, one
// Checker at a time.
func sequentialAnswers(t *testing.T, traces []*Trace) [][]answer {
	t.Helper()
	out := make([][]answer, len(traces))
	for i := range out {
		out[i] = make([]answer, len(Models()))
	}
	for mi, c := range newCheckers(t, 1, Options{})[0] {
		for i, tr := range traces {
			out[i][mi] = checkTrace(c, tr, i)
		}
	}
	return out
}

// concurrentAnswers decides every (trace, model) job in shuffled order
// on the workers' Checkers, each worker a goroutine.
func concurrentAnswers(traces []*Trace, workers [][]*Checker, seed int64) [][]answer {
	type job struct{ trace, model int }
	var jobs []job
	out := make([][]answer, len(traces))
	for i := range traces {
		out[i] = make([]answer, len(Models()))
		for mi := range Models() {
			jobs = append(jobs, job{i, mi})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	ch := make(chan job)
	var wg sync.WaitGroup
	for _, checkers := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				out[j.trace][j.model] = checkTrace(checkers[j.model], traces[j.trace], j.trace)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return out
}

// TestSharedIdentityConcurrent: four workers × four per-model Checkers,
// sharing one memo and store and deciding shuffled (trace, model) jobs,
// print the verdict stream one Checker at a time prints — over an empty
// store, where the Checker that signs a trace is often not the one deciding
// it and a weaker model often decides before a stronger one has proved
// the trace valid, while others answer from that proof; and again over
// the filled store, where most jobs never materialize.
func TestSharedIdentityConcurrent(t *testing.T) {
	want := answerStream(t, sequentialAnswers(t, identityCorpus(t)))
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for pass, name := range []string{"cold", "warm"} {
		memo := NewMemo()
		workers := newCheckers(t, 4, Options{Memo: memo, Store: st})
		got := answerStream(t, concurrentAnswers(identityCorpus(t), workers, int64(pass)))
		if !bytes.Equal(got, want) {
			t.Errorf("%s pass: the shared-identity verdict stream differs from one Checker at a time:\n got %s\nwant %s", name, got, want)
		}
		d := memo.Stats()
		if name == "warm" && (d.Durable == 0 || d.Durable+d.Hits != d.Checks) {
			t.Errorf("warm pass: %s, want every check answered from a tier", d)
		}
		// Over the empty store, a memo span that is not a memo hit is a
		// chain answer.
		var p PhaseSnapshot
		for _, checkers := range workers {
			p = p.Merge(phaseTotals(checkers))
		}
		if name == "cold" && p.Memo.Count <= d.Hits {
			t.Errorf("cold pass: %d memo spans, %s; want answers from the chain", p.Memo.Count, d)
		}
	}
}

// TestSharedIdentitySignsOnce: over a filled store, traces valid under
// every model are signed once each — from their fields, by whichever
// Checker got there first — and never materialized: every valid hit is a
// signature and a lookup.
func TestSharedIdentitySignsOnce(t *testing.T) {
	all := identityCorpus(t)
	var valid []*Trace
	for i, row := range sequentialAnswers(t, all) {
		ok := true
		for _, a := range row {
			ok = ok && a.err == "" && a.v.Valid
		}
		if ok {
			valid = append(valid, all[i])
		}
	}
	if len(valid) < 10 {
		t.Fatalf("%d traces valid under every model, want at least 10", len(valid))
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill := newCheckers(t, 1, Options{Store: st})
	concurrentAnswers(valid, fill, 1)

	traces := make([]*Trace, len(valid))
	for i, tr := range valid {
		traces[i] = clone(tr)
	}
	memo := NewMemo()
	workers := newCheckers(t, 4, Options{Memo: memo, Store: st})
	concurrentAnswers(traces, workers, 2)
	var p PhaseSnapshot
	for _, checkers := range workers {
		for _, c := range checkers {
			p = p.Merge(c.Phases())
		}
	}
	// A decode span is one materialization.
	if p.Decode.Count != 0 {
		t.Errorf("%d traces materialized %d times, want never", len(traces), p.Decode.Count)
	}
	if want := uint64(len(traces) * len(Models())); p.Memo.Count != want || p.Check.Count+p.FastCheck.Count != 0 || memo.Stats().Durable != want {
		t.Errorf("%d jobs: %d memo spans, %d decisions, %s; want every job a durable hit",
			want, p.Memo.Count, p.Check.Count+p.FastCheck.Count, memo.Stats())
	}
}

// TestSharedIdentityInvalidWarmHit: a litmus classic whose stored verdict
// is invalid re-derives its witness from the store byte for byte — Kind,
// Cycle and Detail as the cold check found them — when another model's
// Checker signed the trace and this one materializes it only to decide.
// The signer too materializes only the classics it re-derives: signing
// builds nothing.
func TestSharedIdentityInvalidWarmHit(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	models := Models()
	cold := make([][]Result, len(classics))
	for mi, c := range newCheckers(t, 1, Options{Store: st})[0] {
		for i, e := range classics {
			res, err := c.checkTrace(e.Trace)
			if err != nil {
				t.Fatal(err)
			}
			cold[i] = append(cold[i], res)
			if res.Valid == e.ForbiddenUnder[models[mi]] {
				t.Fatalf("%s under %s: valid=%v against the known answer", e.Trace.Name, models[mi], res.Valid)
			}
		}
	}

	// Warm: the weakest model's Checker signs each classic, then the
	// stronger ones decide it from the store.
	memo := NewMemo()
	checkers := newCheckers(t, 1, Options{Memo: memo, Store: st})[0]
	signer := len(models) - 1
	order := []int{signer}
	for mi := 0; mi < signer; mi++ {
		order = append(order, mi)
	}
	rederived := make([]uint64, len(models))
	for i, e := range classics {
		tr := clone(e.Trace)
		for _, mi := range order {
			res, err := checkers[mi].checkTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, cold[i][mi]) {
				t.Errorf("%s under %s from the store:\n got  %+v\n cold %+v", e.Trace.Name, models[mi], res, cold[i][mi])
			}
			if !res.Valid {
				rederived[mi]++
			}
		}
	}
	if d := memo.Stats(); d.Durable != d.Checks || d.Checks != uint64(len(classics)*len(models)) {
		t.Errorf("warm: %s, want every check a durable hit", d)
	}
	for mi, c := range checkers {
		if got, want := c.Phases().Decode.Count, rederived[mi]; got != want {
			t.Errorf("%s materialized %d times, want %d", models[mi], got, want)
		}
	}
	if rederived[signer] == uint64(len(classics)) {
		t.Errorf("%s re-derived every classic, want some valid under it", models[signer])
	}
	if rederived[0] != uint64(len(classics)) {
		t.Errorf("SC re-derived %d witnesses, want one per classic (every one is forbidden under SC)", rederived[0])
	}
}

// TestSharedIdentityMalformed: a malformed trace returns the same error
// from every model's CheckTrace — materializing each time, since an
// error is not remembered — and the error Trace.Execution returns. The
// generated corpus's malformed traces are checked over a cold memo; the
// canonical-shape ones, which are signed from their fields before they
// fail to build, over a cold memo, over a warm store and by four workers
// at once. None of them leaves a memo entry or a stored record.
func TestSharedIdentityMalformed(t *testing.T) {
	memo := NewMemo()
	checkers := newCheckers(t, 1, Options{Memo: memo})[0]
	malformed := 0
	for i, tr := range generatedTraces(t) {
		_, want := tr.Execution()
		if want == nil {
			continue
		}
		malformed++
		for mi, c := range checkers {
			before := c.Phases().Decode.Count
			_, err := c.CheckTrace(tr, i)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s under %s: %v, want %v", tr.Name, Models()[mi], err, want)
			}
			if n := c.Phases().Decode.Count - before; n != 1 {
				t.Errorf("%s under %s: %d materializations, want 1", tr.Name, Models()[mi], n)
			}
		}
	}
	if malformed < 3 {
		t.Fatalf("%d malformed traces in the generated corpus, want several", malformed)
	}
	if memo.Len() != 0 {
		t.Errorf("malformed traces left %d memo entries", memo.Len())
	}

	base, bad := canonicalMalformed(t)
	wants := make([]string, len(bad))
	for i, tr := range bad {
		_, err := tr.Execution()
		if err == nil {
			t.Fatalf("%s materialized", tr.Name)
		}
		wants[i] = err.Error()
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range newCheckers(t, 1, Options{Store: st})[0] {
		if _, err := c.CheckTrace(base, 0); err != nil {
			t.Fatal(err)
		}
	}
	stored := st.Len()
	for _, pass := range []struct {
		name    string
		opts    Options
		workers int
	}{
		{"cold memo", Options{Memo: NewMemo()}, 1},
		{"warm store", Options{Memo: NewMemo(), Store: st}, 1},
		{"four workers over the warm store", Options{Memo: NewMemo(), Store: st}, 4},
	} {
		traces := make([]*Trace, len(bad))
		for i, tr := range bad {
			traces[i] = clone(tr)
		}
		workers := newCheckers(t, pass.workers, pass.opts)
		for i, row := range concurrentAnswers(traces, workers, 3) {
			for mi, a := range row {
				if a.err != wants[i] {
					t.Errorf("%s: %s under %s: %q, want %q", pass.name, traces[i].Name, Models()[mi], a.err, wants[i])
				}
			}
		}
		if n := pass.opts.Memo.Len(); n != 0 {
			t.Errorf("%s: malformed traces left %d memo entries", pass.name, n)
		}
		if n := st.Len(); n != stored {
			t.Errorf("%s: malformed traces stored %d records", pass.name, n-stored)
		}
	}
}

// canonicalMalformed returns a valid generated trace and copies of it
// that keep the canonical shape and do not build: an rf edge to a write
// at another address, a co order short of a write, two ops sharing a
// key, and a read of a value no write produced. All but the short co
// order are signed from their fields — a co order short of a write
// leaves the shape, as the signing walk counts writes — so the four
// reach the memo's doorstep by both routes.
func canonicalMalformed(t *testing.T) (*Trace, []*Trace) {
	t.Helper()
	var base *Trace
	var rfi int
	for _, tr := range generatedTraces(t) {
		if _, err := tr.Execution(); err != nil || !strings.HasSuffix(tr.Name, "asis") || len(tr.CO) < 2 {
			continue
		}
		rfi = slices.IndexFunc(tr.RF, func(e trace.RFEdge) bool { return !e.Init })
		long := slices.IndexFunc(tr.CO, func(c trace.COOrder) bool { return len(c.Writes) >= 2 })
		if rfi >= 0 && long >= 0 {
			base = tr
			break
		}
	}
	if base == nil {
		t.Fatal("no generated trace to break")
	}
	edits := []struct {
		name   string
		direct bool
		edit   func(tr *Trace)
	}{
		{"rf-foreign", true, func(tr *Trace) {
			e := &tr.RF[rfi]
			read := findOp(tr, e.Read.TID, e.Read.Instr)
			for _, c := range tr.CO {
				if c.Addr != read.Addr {
					e.Write = c.Writes[0]
					return
				}
			}
		}},
		{"co-short", false, func(tr *Trace) {
			c := &tr.CO[slices.IndexFunc(tr.CO, func(c trace.COOrder) bool { return len(c.Writes) >= 2 })]
			c.Writes = c.Writes[1:]
		}},
		{"dup-key", true, func(tr *Trace) {
			// A write after a thread's last read takes the key of the
			// thread's first op. The ops after it shift down by one key,
			// and none of them is a read, whose rf edge names its key.
			for ti := range tr.Threads {
				ops := tr.Threads[ti].Ops
				for i := len(ops) - 1; i >= 1 && ops[i].Kind != trace.OpRead && ops[i].Kind != trace.OpRMW; i-- {
					if ops[i].Kind == trace.OpWrite {
						ops[i].Keyed, ops[i].Instr, ops[i].Sub = true, 0, 0
						return
					}
				}
			}
			t.Fatal("no write to re-key")
		}},
		{"value-unproduced", true, func(tr *Trace) {
			e := tr.RF[rfi]
			findOp(tr, e.Read.TID, e.Read.Instr).Value = 0xdeadbeef
		}},
	}
	var out []*Trace
	for _, ed := range edits {
		tr := &Trace{Name: base.Name + "-" + ed.name, RF: slices.Clone(base.RF)}
		for _, th := range base.Threads {
			tr.Threads = append(tr.Threads, trace.Thread{TID: th.TID, Ops: slices.Clone(th.Ops)})
		}
		for _, c := range base.CO {
			tr.CO = append(tr.CO, trace.COOrder{Addr: c.Addr, Writes: slices.Clone(c.Writes)})
		}
		ed.edit(tr)
		var m trace.Materializer
		if _, ok := m.Sign(tr); ok != ed.direct {
			t.Fatalf("%s: signed from its fields %v, want %v", tr.Name, ok, ed.direct)
		}
		out = append(out, tr)
	}
	return base, out
}
