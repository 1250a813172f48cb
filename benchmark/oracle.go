package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/checker"
	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/testgen"
	"repro/oracle"
)

// corpus is the oracle workloads' input: generated executions that are
// SC-consistent by construction (valid under all four models) plus the
// litmus classics, whose forbidden outcomes have known INVALID answers.
type corpus struct {
	traces []*oracle.Trace
	// forbidden[i] is the litmus known answer of traces[i]; nil for a
	// generated trace.
	forbidden []map[string]bool
	// replays are the first few generated programs with their
	// schedules, kept for the recorder kernel.
	replays []replay
}

type replay struct {
	progs    []testgen.Program
	schedule []int
}

// buildCorpus generates sz.CorpusTraces unique executions: a random
// test of sz.TraceOps operations on 8 threads, one seeded interleaving
// of its instructions executed against a sequentially consistent
// memory and replayed into checker.Recorder.
func buildCorpus(seed int64, sz sizes) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	gen, err := testgen.NewGenerator(testgen.Config{
		Size: sz.TraceOps, Threads: 8, Layout: memsys.MustLayout(8192, 16),
	}, rng)
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	rec := checker.NewRecorder(memmodel.SC{})
	for i := 0; i < sz.CorpusTraces; i++ {
		progs, err := testgen.Compile(gen.NewTest())
		if err != nil {
			return nil, err
		}
		rp := replay{progs: progs, schedule: interleave(progs, rng)}
		rp.run(rec)
		x := rec.Execution()
		if v := rec.EndIteration(); v != nil {
			return nil, fmt.Errorf("generated execution %d rejected under SC: %v", i, v)
		}
		tr, err := oracle.TraceFromExecution(fmt.Sprintf("gen-%d", i), x)
		if err != nil {
			return nil, err
		}
		c.traces = append(c.traces, tr)
		c.forbidden = append(c.forbidden, nil)
		if len(c.replays) < sz.KernelIters {
			c.replays = append(c.replays, rp)
		}
	}
	classics, err := oracle.LitmusCorpus()
	if err != nil {
		return nil, err
	}
	for _, e := range classics {
		c.traces = append(c.traces, e.Trace)
		c.forbidden = append(c.forbidden, e.ForbiddenUnder)
	}
	return c, nil
}

// interleave draws a random interleaving of the programs' instructions
// that preserves each thread's program order.
func interleave(progs []testgen.Program, rng *rand.Rand) []int {
	var schedule []int
	for tid, p := range progs {
		for range p {
			schedule = append(schedule, tid)
		}
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	return schedule
}

// run executes the schedule against a single memory, reporting every
// access to rec the way the simulated cores do.
func (rp replay) run(rec *checker.Recorder) {
	mem := map[memsys.Addr]uint64{}
	next := make([]int, len(rp.progs))
	for _, tid := range rp.schedule {
		idx := next[tid]
		next[tid]++
		in := &rp.progs[tid][idx]
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

// oracleRun is a prepared oracle workload: the encoded corpus and the
// store directory its passes open.
type oracleRun struct {
	corpus  *corpus
	input   []byte
	dir     string
	workers int
	// warm passes reuse the pre-filled store and must reproduce the
	// set-up pass's verdict stream; cold passes get a fresh directory
	// each.
	warm       bool
	coldDigest string
	passes     int
	sz         sizes
}

func prepareOracleCold(seed int64, sz sizes, dir string) (instance, error) {
	c, err := buildCorpus(seed, sz)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := oracle.WriteTraces(&buf, c.traces...); err != nil {
		return nil, err
	}
	return &oracleRun{corpus: c, input: buf.Bytes(), dir: dir, workers: 1, sz: sz}, nil
}

func prepareOracleWarm(seed int64, sz sizes, dir string) (instance, error) {
	c, err := buildCorpus(seed, sz)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := oracle.WriteTracesBinary(&buf, c.traces...); err != nil {
		return nil, err
	}
	r := &oracleRun{corpus: c, input: buf.Bytes(), dir: dir, workers: 2, warm: true, sz: sz}
	// Pre-populate the store with one cold pass; its verdict stream is
	// the reference every warm pass must reproduce byte for byte.
	p, err := r.pass(r.storeDir(), nil)
	if err != nil {
		return nil, err
	}
	r.coldDigest = p.digest
	return r, nil
}

func (r *oracleRun) close() {}

// storeDir names the store a pass opens: the shared pre-filled one when
// warm, a directory of its own otherwise.
func (r *oracleRun) storeDir() string {
	if r.warm {
		return filepath.Join(r.dir, "store")
	}
	r.passes++
	return filepath.Join(r.dir, fmt.Sprintf("store-%d", r.passes))
}

// passResult is what one pass over the corpus produced.
type passResult struct {
	verdicts [][]oracle.Verdict // [trace][model]
	digest   string             // SHA-256 of the NDJSON verdict stream
	dedupe   oracle.Dedupe
	fast     oracle.FastpathStats
	phases   oracle.PhaseSnapshot
	// Traced passes only.
	checkUs         []float64
	openMs, closeMs float64
}

// pass is cmd/check's loop over the public oracle facade: open the
// store, stream-decode the input, fan (trace, model) jobs out to
// r.workers goroutines holding one Checker per model over a shared
// memo, NDJSON-encode the verdicts in input order, close the store.
// With a span log every call into a layer is recorded.
func (r *oracleRun) pass(storeDir string, log *spanLog) (passResult, error) {
	var out passResult
	models := oracle.Models()

	sp := log.begin("oracle.OpenStore", -1, 0, -1)
	store, err := oracle.OpenStore(storeDir)
	out.openMs = log.end(sp).Seconds() * 1e3
	if err != nil {
		return out, err
	}
	defer store.Close() // error paths; the success path checks Close below

	rd, err := oracle.NewTraceReader(bytes.NewReader(r.input), "auto")
	if err != nil {
		return out, err
	}
	var (
		traces []*oracle.Trace
		decode []int // decode span of each trace, parent of its checks
	)
	for {
		sp := log.begin("oracle.TraceReader.Next", len(traces), 0, -1)
		tr, err := rd.Next()
		log.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		traces = append(traces, tr)
		decode = append(decode, sp)
	}

	memo := oracle.NewMemo()
	opts := oracle.Options{Memo: memo, Store: store}
	out.verdicts = make([][]oracle.Verdict, len(traces))
	errs := make([]error, len(traces))
	for i := range out.verdicts {
		out.verdicts[i] = make([]oracle.Verdict, len(models))
	}
	type job struct{ trace, model int }
	jobs := make(chan job)
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards out.fast, out.phases, out.checkUs, errs
	)
	for w := 0; w < r.workers; w++ {
		checkers := make([]*oracle.Checker, len(models))
		for mi, m := range models {
			if checkers[mi], err = oracle.NewChecker(m, opts); err != nil {
				close(jobs)
				wg.Wait()
				return out, err
			}
		}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var checkUs []float64
			for j := range jobs {
				sp := log.begin("oracle.Checker.CheckTrace", j.trace, lane, decode[j.trace])
				v, err := checkers[j.model].CheckTrace(traces[j.trace], j.trace)
				if d := log.end(sp); log != nil {
					checkUs = append(checkUs, float64(d)/1e3)
				}
				out.verdicts[j.trace][j.model] = v
				if err != nil {
					mu.Lock()
					errs[j.trace] = err
					mu.Unlock()
				}
			}
			mu.Lock()
			for _, c := range checkers {
				out.phases = out.phases.Merge(c.Phases())
				out.fast.Merge(c.Fastpath())
			}
			out.checkUs = append(out.checkUs, checkUs...)
			mu.Unlock()
		}(w + 1)
	}
	for ti := range traces {
		for mi := range models {
			jobs <- job{trace: ti, model: mi}
		}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("trace %d: %w", i, err)
		}
	}

	sp = log.begin("json.Encoder.Encode", -1, 0, -1)
	h := sha256.New()
	enc := json.NewEncoder(h)
	for ti := range traces {
		for mi := range models {
			if err := enc.Encode(out.verdicts[ti][mi]); err != nil {
				return out, err
			}
		}
	}
	log.end(sp)
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	out.dedupe = memo.Stats()

	sp = log.begin("oracle.Store.Close", -1, 0, -1)
	err = store.Close()
	out.closeMs = log.end(sp).Seconds() * 1e3
	return out, err
}

// check holds a pass to the known answers: a generated trace is valid
// under every model, a litmus classic is invalid exactly where its
// outcome is forbidden, a warm pass reproduces the cold verdict stream
// and resolves every check from a tier. A trace with any wrong verdict
// is one failed op.
func (r *oracleRun) check(p passResult, err error) outcome {
	o := outcome{Attempted: len(r.corpus.traces), Fingerprint: p.digest}
	if err != nil {
		o.Failed = o.Attempted
		o.Notes = append(o.Notes, err.Error())
		return o
	}
	if len(p.verdicts) != len(r.corpus.traces) {
		o.Failed = o.Attempted
		o.Notes = append(o.Notes, fmt.Sprintf("decoded %d traces, encoded %d", len(p.verdicts), len(r.corpus.traces)))
		return o
	}
	for ti, row := range p.verdicts {
		for _, v := range row {
			if want := !r.corpus.forbidden[ti][v.Model]; v.Valid != want {
				o.Failed++
				o.Notes = append(o.Notes, fmt.Sprintf("trace %d (%s) under %s: valid=%v, want %v",
					ti, r.corpus.traces[ti].Name, v.Model, v.Valid, want))
				break
			}
		}
	}
	if r.warm {
		if p.digest != r.coldDigest {
			o.Failed = o.Attempted
			o.Notes = append(o.Notes, "warm verdict stream differs from the cold one")
		}
		if p.dedupe.Durable+p.dedupe.Hits != p.dedupe.Checks {
			o.Failed = o.Attempted
			o.Notes = append(o.Notes, fmt.Sprintf("warm pass ran fresh checks: %s", p.dedupe))
		}
	}
	return o
}

// checkedPass runs one pass on its store directory and checks it; a
// cold pass's directory is removed afterwards.
func (r *oracleRun) checkedPass(log *spanLog) (passResult, outcome, error) {
	dir := r.storeDir()
	p, err := r.pass(dir, log)
	if !r.warm {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}
	return p, r.check(p, err), err
}

func (r *oracleRun) rep() outcome {
	_, o, _ := r.checkedPass(nil)
	return o
}

func (r *oracleRun) traced(log *spanLog) (outcome, layerMetrics) {
	gw := startGCWatch()
	p, o, err := r.checkedPass(log)
	lm := layerMetrics{}
	if err != nil {
		return o, lm
	}
	if r.warm {
		lm["oracle.check_trace_hit_us"] = stats.Median(p.checkUs)
	} else {
		lm["oracle.check_trace_us"] = stats.Median(p.checkUs)
	}
	var total float64
	for _, us := range p.checkUs {
		total += us * 1e3
	}
	if total > 0 {
		lm["oracle.decode_share"] = float64(p.phases.Decode.Ns) / total
		lm["oracle.fastcheck_share"] = float64(p.phases.FastCheck.Ns) / total
		lm["oracle.check_share"] = float64(p.phases.Check.Ns) / total
		lm["oracle.memo_share"] = float64(p.phases.Memo.Ns) / total
		lm["oracle.unattributed_share"] = 1 - float64(p.phases.TotalNs())/total
	}
	invalid := 0
	for _, row := range p.verdicts {
		for _, v := range row {
			if !v.Valid {
				invalid++
			}
		}
	}
	lm["oracle.durable_hits"] = float64(p.dedupe.Durable)
	lm["oracle.memo_hits"] = float64(p.dedupe.Hits)
	lm["oracle.invalid_verdicts"] = float64(invalid)
	lm["checker.checks"] = float64(p.dedupe.Checks)
	lm["collective.unique"] = float64(p.dedupe.Unique)
	lm["collective.hit_share"] = p.dedupe.HitRate()
	lm["fastpath.conclusive_share"] = p.fast.ConclusiveRate()
	lm["fastpath.fallbacks"] = float64(p.fast.Fallback)
	lm["store.open_ms"] = p.openMs
	lm["store.close_ms"] = p.closeMs
	gw.report(lm)
	return o, lm
}

// kernels times the codec, signature, decision procedures, recorder and
// store one call at a time on the corpus's generated executions.
func (r *oracleRun) kernels() layerMetrics {
	lm := layerMetrics{}
	n := min(r.sz.KernelIters, r.sz.CorpusTraces)
	traces := r.corpus.traces[:n]

	var text, bin bytes.Buffer
	lm["trace.encode_text_us"] = timeEach(n, func(i int) { _ = oracle.WriteTraces(&text, traces[i]) })
	lm["trace.encode_binary_us"] = timeEach(n, func(i int) { _ = oracle.WriteTracesBinary(&bin, traces[i]) })
	text.Reset()
	bin.Reset()
	// Encoding into a bytes.Buffer cannot fail for traces that already
	// encoded in set-up.
	_ = oracle.WriteTraces(&text, r.corpus.traces...)
	_ = oracle.WriteTracesBinary(&bin, r.corpus.traces...)
	lm["trace.text_bytes"] = float64(text.Len())
	lm["trace.binary_bytes"] = float64(bin.Len())
	for _, enc := range []struct {
		metric, format string
		data           []byte
	}{
		{"trace.decode_text_us", "text", text.Bytes()},
		{"trace.decode_binary_us", "binary", bin.Bytes()},
	} {
		rd, err := oracle.NewTraceReader(bytes.NewReader(enc.data), enc.format)
		if err != nil {
			continue
		}
		lm[enc.metric] = timeEach(n, func(int) { _, _ = rd.Next() })
	}

	execs := make([]*oracle.Execution, n)
	lm["trace.materialize_us"] = timeEach(n, func(i int) { execs[i], _ = traces[i].Execution() })
	sigs := make([]oracle.Sig, n)
	lm["collective.signature_us"] = timeEach(n, func(i int) { sigs[i] = oracle.Signature(execs[i]) })

	fast := fastpath.New()
	exact := memmodel.NewChecker(memmodel.WithScratch(memmodel.NewScratch()))
	for _, name := range oracle.Models() {
		arch, err := oracle.ModelByName(name)
		if err != nil {
			continue
		}
		if fastpath.Supported(arch) {
			lm["fastpath.decide_"+strings.ToLower(name)+"_us"] = timeEach(n, func(i int) { fast.Decide(execs[i], arch) })
		}
		lm["memmodel.exact_"+strings.ToLower(name)+"_us"] = timeEach(n, func(i int) { exact.Check(execs[i], arch) })
	}

	rec := checker.NewRecorder(memmodel.SC{})
	lm["checker.record_us"] = timeEach(len(r.corpus.replays), func(i int) {
		r.corpus.replays[i].run(rec)
		rec.ResetAll()
	})

	r.storeKernels(sigs, lm)
	return lm
}

// storeKernels times store operations on a fresh store, a batch at a
// time: appends, lookups that hit, lookups that miss, and the bytes a
// record costs.
func (r *oracleRun) storeKernels(sigs []oracle.Sig, lm layerMetrics) {
	dir := filepath.Join(r.dir, "store-kernels")
	if err := os.RemoveAll(dir); err != nil {
		return
	}
	st, err := oracle.OpenStore(dir)
	if err != nil {
		return
	}
	tso := memmodel.TSO{}
	key := func(scope string, i int) oracle.Sig { return oracle.ScopedKey(scope, sigs[i], tso) }
	valid := collective.Verdict{Valid: true}
	lm["store.put_us"] = timeBatch(len(sigs), func(i int) { st.Put(key("", i), valid) })
	lm["store.get_hit_us"] = timeBatch(len(sigs), func(i int) { st.Get(key("", i)) })
	lm["store.get_miss_us"] = timeBatch(len(sigs), func(i int) { st.Get(key("absent", i)) })
	records := st.Len()
	if err := st.Close(); err != nil || records == 0 {
		return
	}
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	lm["store.bytes_per_record"] = float64(size) / float64(records)
	_ = os.RemoveAll(dir) // scratch; the run's directory is removed at exit anyway
}
