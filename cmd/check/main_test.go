package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/oracle"
)

// corpusText returns the litmus corpus as a text stream via the same
// path as -emit-corpus.
func corpusText(t *testing.T) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-emit-corpus", "text"}, strings.NewReader(""), &out, &errb); code != 0 {
		t.Fatalf("emit-corpus exited %d: %s", code, errb.String())
	}
	return out.Bytes()
}

// TestCorpusGolden: verdicts from the CLI pipeline match the documented
// litmus answers and the in-process oracle, model for model.
func TestCorpusGolden(t *testing.T) {
	in := corpusText(t)
	var out, errb bytes.Buffer
	code := run([]string{"-model", "all", "-json"}, bytes.NewReader(in), &out, &errb)
	if code != 1 {
		// The corpus is all forbidden-outcome traces; at least SC must
		// reject every one of them.
		t.Fatalf("exit code = %d (stderr %q), want 1", code, errb.String())
	}

	corpus, err := oracle.LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	models := oracle.Models()
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	n := 0
	for dec.More() {
		var v oracle.Verdict
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		e := corpus[v.Index]
		if v.Name != e.Trace.Name {
			t.Fatalf("verdict %d named %q, corpus says %q", v.Index, v.Name, e.Trace.Name)
		}
		if want := !e.ForbiddenUnder[v.Model]; v.Valid != want {
			t.Errorf("%s under %s: valid=%v, corpus says %v", v.Name, v.Model, v.Valid, want)
		}

		// Byte-identical to the in-process oracle's verdict.
		c, err := oracle.NewChecker(v.Model, oracle.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.CheckTrace(e.Trace, v.Index)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(v)
		exp, _ := json.Marshal(want)
		if !bytes.Equal(got, exp) {
			t.Errorf("CLI verdict differs from in-process oracle:\n got %s\nwant %s", got, exp)
		}
		n++
	}
	if want := len(corpus) * len(models); n != want {
		t.Fatalf("got %d verdicts, want %d", n, want)
	}
}

// TestBinaryPathMatchesText: the binary corpus through -format auto
// produces byte-identical output to the text corpus.
func TestBinaryPathMatchesText(t *testing.T) {
	var bin, errb bytes.Buffer
	if code := run([]string{"-emit-corpus", "binary"}, strings.NewReader(""), &bin, &errb); code != 0 {
		t.Fatalf("emit-corpus binary exited %d: %s", code, errb.String())
	}
	var fromText, fromBin bytes.Buffer
	if code := run([]string{"-json"}, bytes.NewReader(corpusText(t)), &fromText, &errb); code != 1 {
		t.Fatalf("text run exited %d: %s", code, errb.String())
	}
	if code := run([]string{"-json"}, bytes.NewReader(bin.Bytes()), &fromBin, &errb); code != 1 {
		t.Fatalf("binary run exited %d: %s", code, errb.String())
	}
	if !bytes.Equal(fromText.Bytes(), fromBin.Bytes()) {
		t.Fatalf("text and binary pipelines disagree:\n%s\nvs\n%s", fromText.String(), fromBin.String())
	}
}

// TestParallelMatchesSequential: -parallel fan-out preserves input-order
// output exactly.
func TestParallelMatchesSequential(t *testing.T) {
	in := corpusText(t)
	var seq, par, errb bytes.Buffer
	if code := run([]string{"-json"}, bytes.NewReader(in), &seq, &errb); code != 1 {
		t.Fatalf("sequential exited %d: %s", code, errb.String())
	}
	if code := run([]string{"-json", "-parallel", "4"}, bytes.NewReader(in), &par, &errb); code != 1 {
		t.Fatalf("parallel exited %d: %s", code, errb.String())
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel output differs from sequential")
	}
}

// TestExitCodes: 0 all-valid, 1 violation, 2 errors.
func TestExitCodes(t *testing.T) {
	const valid = "mctrace 1\ntrace ok\nthread 0\nw 0x100 1\nr 0x100 1\nend\n"
	var out, errb bytes.Buffer
	if code := run([]string{"-model", "SC"}, strings.NewReader(valid), &out, &errb); code != 0 {
		t.Errorf("valid trace exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "SC valid") {
		t.Errorf("text output %q missing verdict", out.String())
	}

	const forbidden = "mctrace 1\ntrace sb\nthread 0\nw 0x100 1\nr 0x140 0\nthread 1\nw 0x140 1\nr 0x100 0\nend\n"
	out.Reset()
	if code := run([]string{"-model", "SC"}, strings.NewReader(forbidden), &out, &errb); code != 1 {
		t.Errorf("forbidden SB exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "INVALID") {
		t.Errorf("text output %q missing INVALID", out.String())
	}

	for _, args := range [][]string{
		{"-model", "XC"},
		{"-format", "sideways"},
		{"-emit-corpus", "sideways"},
	} {
		errb.Reset()
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	errb.Reset()
	if code := run([]string{"-model", "SC", "-parallel", "-3"}, strings.NewReader(valid), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "-parallel must not be negative") {
		t.Errorf("-parallel -3 exited %d, want 2 (stderr %q)", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-model", "SC"}, strings.NewReader("garbage\n"), &out, &errb); code != 2 {
		t.Errorf("garbage input exited %d, want 2 (stderr %q)", code, errb.String())
	}
	// Over the trace format's int-field ceiling: a positioned decode error.
	errb.Reset()
	const oversized = "mctrace 1\ntrace o\nthread 4294967296\nw 0x100 1\nend\n"
	if code := run([]string{"-model", "SC"}, strings.NewReader(oversized), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "line 3") {
		t.Errorf("oversized thread id exited %d, want 2 naming line 3 (stderr %q)", code, errb.String())
	}
	// Structurally broken trace: decodes, fails at materialization.
	errb.Reset()
	const broken = "mctrace 1\ntrace b\nthread 0\nr 0x100 7\nend\n"
	if code := run([]string{"-model", "SC"}, strings.NewReader(broken), &out, &errb); code != 2 {
		t.Errorf("unmaterializable trace exited %d, want 2 (stderr %q)", code, errb.String())
	}
}

// TestMalformedTraceReportedOnce: a trace no model can decide is one
// error on stderr, not one per model, between the verdicts of the traces
// around it, and the run exits 2.
func TestMalformedTraceReportedOnce(t *testing.T) {
	const in = "mctrace 1\ntrace ok\nthread 0\nw 0x100 1\nr 0x100 1\nend\n" +
		"trace b\nthread 0\nr 0x100 7\nend\n" +
		"trace ok2\nthread 0\nw 0x100 2\nend\n"
	var out, errb bytes.Buffer
	if code := run([]string{"-model", "all", "-parallel", "2"}, strings.NewReader(in), &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if n := strings.Count(errb.String(), "check: trace 1:"); n != 1 || !strings.Contains(errb.String(), "no producing write") ||
		strings.Count(errb.String(), "\n") != 1 {
		t.Errorf("stderr %q, want the malformed trace's error exactly once", errb.String())
	}
	if got, want := strings.Count(out.String(), " valid\n"), 2*len(oracle.Models()); got != want {
		t.Errorf("stdout %q: %d verdicts, want %d for the two good traces", out.String(), got, want)
	}
}

// TestModelNamesFoldCase: -model takes any spelling of a bundled name
// and the output carries the canonical one.
func TestModelNamesFoldCase(t *testing.T) {
	const valid = "mctrace 1\ntrace ok\nthread 0\nw 0x100 1\nr 0x100 1\nend\n"
	var out, errb bytes.Buffer
	if code := run([]string{"-model", "sc,Tso, SC"}, strings.NewReader(valid), &out, &errb); code != 0 {
		t.Fatalf("-model sc,Tso exited %d: %s", code, errb.String())
	}
	if got := out.String(); !strings.Contains(got, "SC valid") || !strings.Contains(got, "TSO valid") ||
		strings.Count(got, "valid") != 2 {
		t.Errorf("output %q, want one canonical SC and one TSO verdict", got)
	}
}

// TestModelListStrongestFirst: a -model list is checked and printed in
// the bundled containment order, whatever order it names the models in.
func TestModelListStrongestFirst(t *testing.T) {
	in := corpusText(t)
	var want, got, errb bytes.Buffer
	if code := run([]string{"-json", "-model", "SC,TSO,RMO"}, bytes.NewReader(in), &want, &errb); code != 1 {
		t.Fatalf("-model SC,TSO,RMO exited %d: %s", code, errb.String())
	}
	if code := run([]string{"-json", "-model", "rmo,SC,tso", "-parallel", "3"}, bytes.NewReader(in), &got, &errb); code != 1 {
		t.Fatalf("-model rmo,SC,tso exited %d: %s", code, errb.String())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("-model rmo,SC,tso:\n%s\nwant the SC,TSO,RMO output:\n%s", got.String(), want.String())
	}

	const valid = "mctrace 1\ntrace ok\nthread 0\nw 0x100 1\nr 0x100 1\nend\n"
	var out bytes.Buffer
	if code := run([]string{"-model", "TSO,SC"}, strings.NewReader(valid), &out, &errb); code != 0 {
		t.Fatalf("-model TSO,SC exited %d: %s", code, errb.String())
	}
	if want := "ok: SC valid\nok: TSO valid\n"; out.String() != want {
		t.Errorf("-model TSO,SC printed %q, want %q", out.String(), want)
	}
}

// TestDurableStoreWarm: a second run over the same -store answers from
// the durable tier and reports it under -progress.
func TestDurableStoreWarm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	in := corpusText(t)
	var cold, warm, errCold, errWarm bytes.Buffer
	if code := run([]string{"-json", "-store", dir, "-progress"}, bytes.NewReader(in), &cold, &errCold); code != 1 {
		t.Fatalf("cold run exited %d: %s", code, errCold.String())
	}
	if code := run([]string{"-json", "-store", dir, "-progress"}, bytes.NewReader(in), &warm, &errWarm); code != 1 {
		t.Fatalf("warm run exited %d: %s", code, errWarm.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm verdicts differ from cold")
	}
	if !strings.Contains(errWarm.String(), "durable") {
		t.Errorf("warm -progress output %q does not report durable hits", errWarm.String())
	}
}
