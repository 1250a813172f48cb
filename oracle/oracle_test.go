package oracle

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// TestLitmusCorpusKnownAnswers: every bundled classic's trace decides to
// its documented verdict under every model, through the public surface
// only.
func TestLitmusCorpusKnownAnswers(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 8 {
		t.Fatalf("corpus has %d entries, want >= 8", len(corpus))
	}
	for _, model := range Models() {
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range corpus {
			v, err := c.CheckTrace(e.Trace, i)
			if err != nil {
				t.Fatalf("%s under %s: %v", e.Trace.Name, model, err)
			}
			forbidden, known := e.ForbiddenUnder[model]
			if !known {
				t.Fatalf("%s has no known answer for %s", e.Trace.Name, model)
			}
			if v.Valid != !forbidden {
				t.Errorf("%s under %s: valid=%v, want %v", e.Trace.Name, model, v.Valid, !forbidden)
			}
			if v.Name != e.Trace.Name || v.Index != i || v.Model != model {
				t.Errorf("verdict labels %+v wrong for %s/%s/%d", v, e.Trace.Name, model, i)
			}
			if !v.Valid && (v.Kind == "" || v.Detail == "") {
				t.Errorf("%s under %s: invalid verdict missing kind/detail: %+v", e.Trace.Name, model, v)
			}
		}
	}
}

// TestExactAndFastAgree: the fast-path pass changes cost, never outcome —
// a Checker's verdicts on the traces of executions are the exact
// procedure's on those executions, with no fast pass in front of it.
func TestExactAndFastAgree(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	exact := memmodel.NewChecker()
	for _, model := range Models() {
		fast, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		arch, err := ModelByName(model)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range corpus {
			x, err := e.Trace.Execution()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := TraceFromExecution(e.Trace.Name, x)
			if err != nil {
				t.Fatal(err)
			}
			v, err := fast.CheckTrace(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			re := exact.Check(x, arch)
			if v.Valid != re.Valid || !re.Valid && (v.Kind != re.Kind.String() || v.Detail != re.Detail) {
				t.Fatalf("%s under %s: fast %+v != exact %+v", e.Trace.Name, model, v, re)
			}
		}
		if fast.Fastpath().Checks == 0 {
			t.Errorf("%s: the checker never consulted the fast pass", model)
		}
	}
}

// mustCorpusTrace encodes a fresh execution of the i-th litmus classic
// as a trace no Checker has seen.
func mustCorpusTrace(t *testing.T, i int) *Trace {
	t.Helper()
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	x, err := corpus[i].Trace.Execution()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceFromExecution(corpus[i].Trace.Name, x)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustCheck is CheckTrace that fails the test on an error.
func mustCheck(t *testing.T, c *Checker, tr *Trace) Verdict {
	t.Helper()
	v, err := c.CheckTrace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSharedMemoAndDurableStore: two checkers over one memo dedupe; a
// fresh process (new memo) over the same store directory answers from
// the durable tier.
func TestSharedMemoAndDurableStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo()
	c1, err := NewChecker("TSO", Options{Memo: memo, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	cold := mustCheck(t, c1, mustCorpusTrace(t, 1))
	mustCheck(t, c1, mustCorpusTrace(t, 1))
	d := c1.Dedupe()
	if d.Checks != 2 || d.Hits != 1 || d.Unique != 1 {
		t.Fatalf("memo stats = %+v, want 2 checks / 1 hit / 1 unique", d)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "New process": fresh memo, reopened store.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2, err := NewChecker("TSO", Options{Memo: NewMemo(), Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	warm := mustCheck(t, c2, mustCorpusTrace(t, 1))
	d2 := c2.Dedupe()
	if d2.Durable != 1 {
		t.Fatalf("warm stats = %+v, want 1 durable hit", d2)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("durable warm result %+v != cold %+v", warm, cold)
	}
}

// TestTraceReaderAuto sniffs both encodings from the same entry point.
func TestTraceReaderAuto(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var text, bin bytes.Buffer
	if err := WriteTraces(&text, corpus[0].Trace); err != nil {
		t.Fatal(err)
	}
	if err := WriteTracesBinary(&bin, corpus[0].Trace); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		r, err := NewTraceReader(bytes.NewReader(buf.Bytes()), "auto")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := r.Next()
		if err != nil {
			t.Fatalf("auto %s: %v", name, err)
		}
		if !reflect.DeepEqual(tr, corpus[0].Trace) {
			t.Fatalf("auto %s: trace changed", name)
		}
	}
	if _, err := NewTraceReader(&bytes.Buffer{}, "sideways"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestTraceReaderAutoMatchesExplicit: the sniffing reader hands the
// bytes it sniffed on to the decoder it picks, so it decodes exactly what
// that format's reader decodes — the same traces, the same error at the
// same line or byte — for whole streams, a cut one, streams shorter than
// the magic and an empty one.
func TestTraceReaderAutoMatchesExplicit(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var traces []*Trace
	for _, e := range corpus {
		traces = append(traces, e.Trace)
	}
	var text, bin bytes.Buffer
	if err := WriteTraces(&text, traces...); err != nil {
		t.Fatal(err)
	}
	if err := WriteTracesBinary(&bin, traces...); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, format string
		in           []byte
	}{
		{"text", "text", text.Bytes()},
		{"binary", "binary", bin.Bytes()},
		{"cut text", "text", text.Bytes()[:text.Len()/2]},
		{"cut binary", "binary", bin.Bytes()[:bin.Len()/2]},
		{"binary magic alone", "binary", []byte("MCVB")},
		{"shorter than the magic", "text", []byte("MCV")},
		{"empty", "text", nil},
	} {
		got, gotErr := readAll(t, c.in, "auto")
		want, wantErr := readAll(t, c.in, c.format)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: auto fails with %v, %s with %v", c.name, gotErr, c.format, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: auto decodes %d traces, %s %d, or they differ", c.name, len(got), c.format, len(want))
		}
	}
}

// readAll decodes every trace in in through a reader of format.
func readAll(t *testing.T, in []byte, format string) ([]*Trace, error) {
	t.Helper()
	r, err := NewTraceReader(bytes.NewReader(in), format)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Trace
	for {
		tr, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, tr)
	}
}

// TestModelNamesFoldCase: the oracle's two entry points that take a
// model name accept any case and answer with the canonical model; an
// unknown name is reported as it was spelled.
func TestModelNamesFoldCase(t *testing.T) {
	for _, name := range []string{"tso", "Tso", "TSO"} {
		c, err := NewChecker(name, Options{})
		if err != nil {
			t.Fatalf("NewChecker(%q): %v", name, err)
		}
		if got := c.Model().Name(); got != "TSO" {
			t.Errorf("NewChecker(%q) decides %s, want TSO", name, got)
		}
	}
	for _, want := range Models() {
		if m, err := ModelByName(strings.ToLower(want)); err != nil || m.Name() != want {
			t.Errorf("ModelByName(%q) = %v, %v; want %s", strings.ToLower(want), m, err, want)
		}
	}
	if _, err := NewChecker("power", Options{}); err == nil || !strings.Contains(err.Error(), `"power"`) {
		t.Errorf("NewChecker(power): error %v, want one naming \"power\"", err)
	}
}

// TestPhases: the oracle attributes decode and check time. A decode span
// is one materialization: the first pass signs each classic and decides
// it on the same execution; the second finds the memo's verdict, and as
// every classic is forbidden under SC, materializes again to re-derive
// its witness.
func TestPhases(t *testing.T) {
	c, err := NewChecker("SC", Options{})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range corpus {
		if _, err := c.CheckTrace(e.Trace, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CheckTrace(e.Trace, i); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Phases()
	if p.Decode.Count != uint64(2*len(corpus)) {
		t.Errorf("decode spans = %d, want %d", p.Decode.Count, 2*len(corpus))
	}
	if p.Memo.Count != uint64(len(corpus)) {
		t.Errorf("memo spans = %d, want %d (second pass hits)", p.Memo.Count, len(corpus))
	}
	if p.Check.Count+p.FastCheck.Count != uint64(len(corpus)) {
		t.Errorf("check+fastcheck spans = %d+%d, want %d", p.Check.Count, p.FastCheck.Count, len(corpus))
	}
}

// TestVerdictMatchesInProcessCheck: the public surface's verdicts agree
// with the exact memmodel.Checker — the oracle contract cmd/check's golden test
// leans on.
func TestVerdictMatchesInProcessCheck(t *testing.T) {
	corpus, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models() {
		arch, err := ModelByName(model)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewChecker(model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range corpus {
			v, err := c.CheckTrace(e.Trace, i)
			if err != nil {
				t.Fatal(err)
			}
			x, err := e.Trace.Execution()
			if err != nil {
				t.Fatal(err)
			}
			want := memmodel.NewChecker().Check(x, arch)
			if v.Valid != want.Valid {
				t.Errorf("%s/%s: valid=%v, exact memmodel.Checker says %v", e.Trace.Name, model, v.Valid, want.Valid)
			}
			if !want.Valid && v.Kind != want.Kind.String() {
				t.Errorf("%s/%s: kind=%q, want %q", e.Trace.Name, model, v.Kind, want.Kind)
			}
		}
	}
}
