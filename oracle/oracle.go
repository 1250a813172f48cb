// Package oracle is the public checker-as-oracle surface: external Go
// consumers decide candidate executions — ones decoded from trace
// streams, or their own, encoded by TraceFromExecution — against the
// bundled axiomatic memory models without importing any internal
// package. CheckTrace is the one way to decide one; CheckStream is the
// one loop that reads a stream, decides its traces on several
// goroutines and hands the verdicts on in input order. cmd/check is a
// thin CLI over exactly this API: flag parsing and one CheckStream.
//
// The shape mirrors the in-repo campaign pipeline: a Checker holds one
// model plus the unified fast-path-first decision procedure, consults a
// shareable verdict Memo (optionally backed by a durable on-disk Store
// shared across processes and runs), and returns Results
// byte-identical to the exact checker's regardless of which tier or
// pass decided. A Checker is single-goroutine; Checkers may share a
// Memo and through it a Store.
//
// A trace's identity is shared: the first CheckTrace to see a Trace —
// whichever model's Checker, on whichever goroutine — signs it, and every
// other Checker reuses that signature (concurrent ones wait for it). So a
// Trace is read-only once checked. A trace in the canonical shape the
// encoders write is signed from its own fields, without building its
// execution; any other is materialized to be signed, and that execution
// goes on to be decided. CheckTrace materializes only to decide: when its
// model must actually be decided (a memo or store miss, or a stored
// invalid verdict re-deriving its witness). A valid hit costs a signature
// the first time a trace is seen, then one ScopedKey fold and a lookup. A
// trace that does not build is an error from every model before the memo
// is asked, so it never becomes a memo entry or a stored record.
//
// A trace also remembers the strongest model it was decided valid under.
// The bundled models form a chain, SC ⊇ TSO ⊇ PSO ⊇ RMO in what they
// forbid (Models() lists it strongest first), so a valid decision under
// one model answers every weaker one. Only a decision a Checker makes in
// this process records it; a verdict answered from the memo or the store
// does not. When the memo asks a Checker to decide a trace that is
// already valid under its model or a stronger one, the Checker answers
// valid without materializing or checking. The memo and store still see
// that answer like any other: every (trace, model) is counted, stored and
// keyed as before. Deciding the models strongest first therefore costs a
// valid trace one materialization, one signature and one check for all
// four.
//
// What a Checker keeps: its scratch for the exact procedure and, for
// CheckTrace, one execution into which a trace of the canonical shape
// every encoder writes is materialized, straight from its fields, when
// it has to be — the storage grows to the largest trace seen and is
// reused for the next, so deciding a stream of encoded traces does not
// allocate an execution per trace. Any other trace is built by a
// Builder into an execution of its own. Nothing of either escapes:
// verdicts and memo entries carry event IDs and strings, never the
// execution. Executions a caller builds (Builder) or takes from
// Trace.Execution are the caller's: no Checker keeps, resets or reuses
// them. To decide one, encode it with TraceFromExecution and hand the
// trace to CheckTrace.
//
//	rd, err := oracle.NewTraceReader(f, "auto") // a text or a binary stream
//	stats, err := oracle.CheckStream(rd, oracle.Models(), 0, oracle.Options{},
//		func(i int, verdicts []oracle.Verdict, err error) error {
//			// trace i's verdicts, one per model: v.Valid, v.Kind, v.Detail ...
//			return nil
//		})
package oracle

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/collective/store"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Aliases into the internal packages: these are the real types, not
// wrappers, so values flow freely between the oracle API and any
// internal-package values a consumer receives from elsewhere in the
// module.
type (
	// Result is the outcome of checking one candidate execution.
	Result = memmodel.Result
	// ViolationKind classifies why an execution is invalid.
	ViolationKind = memmodel.ViolationKind
	// Model is an axiomatic memory model (SC, TSO, PSO, RMO).
	Model = memmodel.Arch
	// Execution is one candidate execution.
	Execution = memmodel.Execution
	// Builder assembles executions with validation.
	Builder = memmodel.Builder
	// Trace is one candidate execution in interchange form.
	Trace = trace.Trace
	// Memo is the shareable in-RAM verdict table.
	Memo = collective.Memo
	// Sig is the 128-bit canonical execution signature verdicts key on.
	Sig = collective.Sig
	// VerdictStore is the durable tier below a Memo.
	VerdictStore = collective.VerdictStore
	// Store is the bundled append-only on-disk VerdictStore.
	Store = store.Store
	// Dedupe counts memo effectiveness (checks, hits, durable hits).
	Dedupe = stats.Dedupe
	// FastpathStats counts fast-pass outcomes.
	FastpathStats = stats.Fastpath
	// PhaseSnapshot breaks oracle time down by pipeline phase.
	PhaseSnapshot = obs.Snapshot
)

// NewBuilder returns an empty execution builder.
func NewBuilder() *Builder { return memmodel.NewBuilder() }

// NewMemo returns an empty shareable verdict table.
func NewMemo() *Memo { return collective.NewMemo() }

// OpenStore opens (creating if needed) the durable verdict store in
// dir. Attach it via Options.Store — every process pointing at the same
// directory shares verdicts across restarts.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Models returns the bundled model names in containment order.
func Models() []string { return memmodel.Names() }

// ModelByName resolves a model name (case-insensitive). This is the one
// place case is folded: memmodel.ByName and everything that compares
// model names behind it (scenario IDs, store scopes) see canonical names.
func ModelByName(name string) (Model, error) {
	for _, known := range memmodel.Names() {
		if strings.EqualFold(name, known) {
			return memmodel.ByName(known)
		}
	}
	return memmodel.ByName(name) // the error names the spelling it was given
}

// Signature computes the canonical signature of x — the key verdicts
// are memoized and persisted under (after the model fold; see
// ScopedKey). It equals the signature CheckTrace gives the trace
// TraceFromExecution encodes x as.
func Signature(x *Execution) Sig { return collective.Signature(x) }

// ScopedKey folds (scenario scope, model, signature) into the key a
// Memo — and through it a Store — looks verdicts up under. A Checker
// keys every verdict under the empty scope, so a tool pre-seeding a
// Store for Checkers passes "".
func ScopedKey(scope string, sig Sig, model Model) Sig {
	return collective.ScopedKey(scope, sig, model)
}

// Trace codec surface, re-exported so cmd/check and external consumers
// need only this package.

// WriteTraces encodes traces canonically in the text format.
func WriteTraces(w io.Writer, traces ...*Trace) error { return trace.WriteText(w, traces...) }

// WriteTracesBinary encodes traces in the binary framing.
func WriteTracesBinary(w io.Writer, traces ...*Trace) error {
	return trace.WriteBinary(w, traces...)
}

// TraceFromExecution encodes an execution as a canonical trace.
func TraceFromExecution(name string, x *Execution) (*Trace, error) {
	return trace.FromExecution(name, x)
}

// TraceReader reads traces one at a time: Next returns the next trace,
// or io.EOF after the last one.
type TraceReader = trace.Reader

// NewTraceReader returns a reader of r in the named format: "text",
// "binary", or "auto" (the stream's first bytes name it — binary streams
// open with "MCVB", text streams with the "mctrace" header).
// A text stream is decoded on every core: before the reader returns the
// first trace it reads up to GOMAXPROCS×64 KiB of the stream, or to the
// stream's end. So a producer that writes more of a text stream only
// after a verdict on what it wrote stalls; send such a stream in binary,
// whose reader returns each trace once its bytes have arrived.
func NewTraceReader(r io.Reader, format string) (TraceReader, error) {
	switch format {
	case "text":
		return trace.NewTextReader(r), nil
	case "binary":
		return trace.NewBinaryDecoder(r), nil
	case "auto", "":
		return trace.NewReader(r)
	default:
		return nil, fmt.Errorf("oracle: unknown trace format %q (want text, binary, or auto)", format)
	}
}

// Options configures a Checker.
type Options struct {
	// Memo is a shared verdict table (nil = a private one per Checker).
	// Checkers of different models may share one memo; it keys on the
	// model.
	Memo *Memo
	// Store attaches a durable verdict tier to the Checker's memo. Set
	// it on the first Checker built over a shared memo, before
	// concurrent use.
	Store VerdictStore
}

// Checker decides traces against one model. It is single-goroutine,
// like the underlying scratch; build one per worker and share the Memo.
type Checker struct {
	arch Model
	// rank is arch's position in Models(), strongest first; -1 for a
	// model outside the chain, which never answers from it.
	rank   int
	chk    *memmodel.Checker
	memo   *Memo
	phases obs.PhaseStats
	// decide is the method value the memo calls on a tier miss, made once
	// so a check does not allocate a closure; decided records that it ran.
	decide  collective.CheckFunc
	decided bool
	// sign is the method value a trace no Checker has signed is signed
	// with, made once for the same reason.
	sign func(*Trace) (Sig, *Execution, error)
	// mat is where CheckTrace signs and materializes, in one execution
	// reused for every trace. pending is the trace CheckTrace is deciding.
	mat     trace.Materializer
	pending *Trace
}

// NewChecker returns a Checker for the named model ("SC", "TSO",
// "PSO", "RMO"; case-insensitive).
func NewChecker(model string, opts Options) (*Checker, error) {
	arch, err := ModelByName(model)
	if err != nil {
		return nil, fmt.Errorf("oracle: %v", err)
	}
	memo := opts.Memo
	if memo == nil {
		memo = collective.NewMemo()
	}
	if opts.Store != nil {
		memo.SetStore(opts.Store)
	}
	c := &Checker{
		arch: arch,
		rank: slices.Index(memmodel.Names(), arch.Name()),
		chk: memmodel.NewChecker(
			memmodel.WithScratch(memmodel.NewScratch()),
			memmodel.WithFastDecider(fastpath.New())),
		memo: memo,
	}
	c.decide = c.runCheck
	c.sign = c.signTrace
	return c, nil
}

// runCheck is the decision procedure as the memo sees it. It first asks
// the model chain: a pending trace some Checker decided valid under this
// model or a stronger one is valid here, answered without a decision.
// Otherwise it runs the unified checker, noting that it was reached, and
// records a valid decision on the pending trace for the weaker models. x
// is nil only where checkTrace knew the memo would not ask for a
// decision.
func (c *Checker) runCheck(x *Execution, arch Model) Result {
	t := c.pending
	if c.rank >= 0 && t.ValidUnder(c.rank) {
		return Result{Valid: true}
	}
	c.decided = true
	res := c.chk.Check(x, arch)
	if res.Valid && c.rank >= 0 {
		t.ProvedValid(c.rank)
	}
	return res
}

// signTrace signs a trace no Checker has signed: from its fields when it
// has the canonical shape, else by materializing it and signing the
// execution, which it hands on to be decided. Signing is memo time, as
// the memo key is all it is for, though not a memo span: those count the
// checks the memo answered. Materializing is a decode span.
func (c *Checker) signTrace(t *Trace) (Sig, *Execution, error) {
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	t0 := time.Now()
	sig, ok := c.mat.Sign(t)
	var (
		x     *Execution
		build time.Duration
		err   error
	)
	if !ok {
		if x, build, err = c.materialize(t); err == nil {
			sig = collective.Signature(x)
		}
	}
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	c.phases.ObserveN(obs.PhaseMemo, int64(time.Since(t0)-build), 0)
	return sig, x, err
}

// materialize builds t's execution in the Checker's storage, booked as
// decode, and returns how long that took.
func (c *Checker) materialize(t *Trace) (*Execution, time.Duration, error) {
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	t0 := time.Now()
	x, err := c.mat.Execution(t)
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	d := time.Since(t0)
	c.phases.Observe(obs.PhaseDecode, d)
	return x, d, err
}

// Model returns the model this Checker decides against.
func (c *Checker) Model() Model { return c.arch }

// Verdict is one trace's JSON-friendly check outcome — the shape
// cmd/check emits with -json.
type Verdict struct {
	// Name is the trace's name, when it carries one.
	Name string `json:"name,omitempty"`
	// Index is the trace's position in its stream (0-based). cmd/check
	// numbers traces across every input, in order.
	Index int `json:"index"`
	// Model is the model the trace was decided against.
	Model string `json:"model"`
	// Sig is the canonical execution signature, hex-encoded.
	Sig string `json:"sig"`
	// Valid reports whether the execution satisfies the model.
	Valid bool `json:"valid"`
	// Kind names the violated constraint when invalid.
	Kind string `json:"kind,omitempty"`
	// Detail is the human-readable diagnosis when invalid.
	Detail string `json:"detail,omitempty"`
}

// CheckTrace decides the trace, labelling the verdict with the trace's
// name and stream index. Malformed traces (events that cannot form an
// execution at all) return an error rather than a verdict, the same one
// from every model. The trace's signature is computed once across all
// Checkers (Trace.Signature); its execution is materialized only to
// decide it, or to sign a trace not in the canonical shape, into storage
// the Checker keeps and overwrites on the next call — the same routine as Trace.Execution, the same
// execution event for event, so verdicts, signatures and errors do not
// depend on what was checked before, or by whom. A trace this Checker
// decides valid is recorded as valid under its model, and a trace some
// Checker recorded valid under this model or a stronger one is answered
// valid without being decided again (see the package doc).
func (c *Checker) CheckTrace(t *Trace, index int) (Verdict, error) {
	res, err := c.checkTrace(t)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Name:  t.Name,
		Index: index,
		Model: c.arch.Name(),
		Sig:   t.SignatureString(),
		Valid: res.Valid,
	}
	if !res.Valid {
		v.Kind = res.Kind.String()
		v.Detail = res.Detail
	}
	return v, nil
}

// checkTrace is CheckTrace's decision: the full Result, witness cycle
// included, routed through the memo (and the durable store when
// attached) and booked to the phase that paid for it.
func (c *Checker) checkTrace(t *Trace) (Result, error) {
	// x is nil unless this call signed the trace by building it. The
	// trace is built now only when the memo may ask for a decision: a
	// trace that does not build is then an error, and never a memo entry
	// or a stored record.
	sig, x, err := t.Signature(c.sign)
	if err != nil {
		return Result{}, err
	}
	if x == nil && !c.answered(t, sig) {
		if x, _, err = c.materialize(t); err != nil {
			return Result{}, err
		}
	}
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	t0 := time.Now()
	fastBefore := c.chk.Fastpath()
	c.decided = false
	c.pending = t
	res, hit := c.memo.CheckScopedVia("", sig, x, c.arch, c.decide)
	c.pending = nil
	fastAfter := c.chk.Fastpath()
	phase := obs.PhaseCheck
	switch {
	case hit || !c.decided:
		// Answered without a decision: by the in-RAM memo (hit), by the
		// durable store below it, which the memo reports as a miss it
		// did not have to decide, or by the model chain. A stored invalid
		// verdict re-derives its witness through the decision procedure
		// and is booked as the check it pays.
		phase = obs.PhaseMemo
	case fastAfter.Valid > fastBefore.Valid && res.Valid:
		// The fast pass proved it; invalid and fallback routes pay the
		// exact checker, so they count as PhaseCheck.
		phase = obs.PhaseFastCheck
	}
	//mcvlint:allow nondeterm phase telemetry; never feeds results
	c.phases.Observe(phase, time.Since(t0))
	return res, nil
}

// answered reports whether the memo will answer t valid under this
// Checker's model without reading its execution: the model chain holds
// it valid, or the memo or the store below it holds a valid verdict for
// its key.
func (c *Checker) answered(t *Trace, sig Sig) bool {
	return c.rank >= 0 && t.ValidUnder(c.rank) || c.memo.KnownValid("", sig, c.arch)
}

// Dedupe snapshots the memo's effectiveness counters (shared across
// every Checker on the same memo).
func (c *Checker) Dedupe() Dedupe { return c.memo.Stats() }

// Fastpath snapshots this Checker's fast-pass outcome counters: one per
// decision it made, none for a verdict answered from a tier or the model
// chain.
func (c *Checker) Fastpath() FastpathStats { return c.chk.Fastpath() }

// Phases snapshots this Checker's per-phase time breakdown: decode
// (one span per trace materialization, to sign or to decide), fastcheck
// (fast-pass-proved decisions), check (exact decisions), memo (answered
// without a decision, from a tier or the model chain; its time also
// holds signing traces, which counts no span).
func (c *Checker) Phases() PhaseSnapshot { return c.phases.Snapshot() }

// LitmusCorpus returns the bundled weak-memory classics as traces of
// their forbidden outcomes, with per-model expected verdicts — the
// known answers CI pins cmd/check against.
func LitmusCorpus() ([]CorpusEntry, error) {
	var out []CorpusEntry
	for _, k := range litmus.Corpus() {
		t, ok := k.Materialize()
		if !ok {
			return nil, fmt.Errorf("oracle: litmus classic %s failed to materialize", k.Name)
		}
		x, ok := t.Execution()
		if !ok {
			return nil, fmt.Errorf("oracle: litmus classic %s has no consistent execution", k.Name)
		}
		tr, err := trace.FromExecution(k.Name, x)
		if err != nil {
			return nil, fmt.Errorf("oracle: litmus classic %s: %v", k.Name, err)
		}
		out = append(out, CorpusEntry{
			Trace:          tr,
			ForbiddenUnder: k.ForbiddenUnder,
		})
	}
	return out, nil
}

// CorpusEntry is one litmus classic as a trace plus its known answer.
type CorpusEntry struct {
	// Trace is the classic's forbidden outcome.
	Trace *Trace `json:"trace"`
	// ForbiddenUnder maps model name to whether that outcome is
	// forbidden (i.e. the expected verdict is invalid).
	ForbiddenUnder map[string]bool `json:"forbidden_under"`
}
