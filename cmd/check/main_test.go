package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

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

// TestBinaryPathMatchesText: the binary corpus, sniffed by its magic,
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

// TestMixedFormatFiles: files of either format, in any mix, print the
// verdicts the same files all in text print.
func TestMixedFormatFiles(t *testing.T) {
	var bin, errb bytes.Buffer
	if code := run([]string{"-emit-corpus", "binary"}, strings.NewReader(""), &bin, &errb); code != 0 {
		t.Fatalf("emit-corpus binary exited %d: %s", code, errb.String())
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	text, binary := write("corpus.txt", corpusText(t)), write("corpus.bin", bin.Bytes())
	var want, got bytes.Buffer
	if code := run([]string{"-model", "SC,TSO", text, text, text}, strings.NewReader(""), &want, &errb); code != 1 {
		t.Fatalf("text files exited %d: %s", code, errb.String())
	}
	if code := run([]string{"-model", "SC,TSO", text, binary, text}, strings.NewReader(""), &got, &errb); code != 1 {
		t.Fatalf("mixed files exited %d: %s", code, errb.String())
	}
	if got.String() != want.String() {
		t.Fatalf("mixed files print\n%s\nthe text files\n%s", got.String(), want.String())
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

// TestParallelZeroMeansAllCores: -parallel 0 runs a worker per core and
// prints, byte for byte, what -parallel 1 prints, with the same exit
// code, in text and in NDJSON.
func TestParallelZeroMeansAllCores(t *testing.T) {
	in := corpusText(t)
	for _, format := range [][]string{{"-model", "all"}, {"-model", "all", "-json"}} {
		var one, all, errb bytes.Buffer
		codeOne := run(append(format, "-parallel", "1"), bytes.NewReader(in), &one, &errb)
		codeAll := run(append(format, "-parallel", "0"), bytes.NewReader(in), &all, &errb)
		if codeOne != 1 || codeAll != codeOne {
			t.Fatalf("%v: -parallel 1 exited %d, -parallel 0 %d, want 1 both (stderr %q)", format, codeOne, codeAll, errb.String())
		}
		if !bytes.Equal(one.Bytes(), all.Bytes()) {
			t.Fatalf("%v: -parallel 0 output differs from -parallel 1", format)
		}
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
		// The stream names its own format; there is no flag for it.
		{"-format", "text"},
		{"-emit-corpus", "sideways"},
		// -emit-corpus checks nothing: a model or a file is refused.
		{"-emit-corpus", "text", "-model", "TSO"},
		{"-emit-corpus", "text", "nosuch.txt"},
		{"-emit-corpus", "text", "-model", "TSO", "nosuch.txt"},
	} {
		errb.Reset()
		if code := run(args, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	// A verdict depends on the execution and the model alone: there is no
	// scope to split it by, even on an input that checks cleanly.
	errb.Reset()
	if code := run([]string{"-scope", "x", "-model", "SC"}, strings.NewReader(valid), &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined: -scope") {
		t.Errorf("-scope x exited %d, want 2 as an unknown flag (stderr %q)", code, errb.String())
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
	// An input holding no trace checks nothing: exit 2 naming it, so a
	// producer that died before writing does not pass.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.mctrace")
	headerOnly := filepath.Join(dir, "header.mctrace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(headerOnly, []byte("mctrace 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		stdin string
		names string
	}{
		{[]string{"-model", "TSO", empty}, "", empty},
		{[]string{"-model", "TSO", headerOnly}, "", headerOnly},
		{[]string{"-model", "TSO"}, "", "stdin"},
		{[]string{"-model", "TSO"}, "mctrace 1\n", "stdin"},
	} {
		out.Reset()
		errb.Reset()
		if code := run(c.args, strings.NewReader(c.stdin), &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), c.names) || out.Len() != 0 {
			t.Errorf("%v on stdin %q exited %d, want 2 naming %s (stdout %q, stderr %q)",
				c.args, c.stdin, code, c.names, out.String(), errb.String())
		}
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

// TestProgressReportsStreamReading: -progress prints one [obs] line for
// reading the input streams — the traces and bytes read, over every
// input — beside the phase breakdown, and a run without it prints none.
func TestProgressReportsStreamReading(t *testing.T) {
	in := corpusText(t)
	corpus, err := oracle.LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-model", "SC", "-progress"}, bytes.NewReader(in), &out, &errb); code != 1 {
		t.Fatalf("exit code = %d (stderr %q), want 1", code, errb.String())
	}
	want := fmt.Sprintf("[obs] stream reading: %d traces, %d bytes", len(corpus), len(in))
	var lines []string
	for _, l := range strings.Split(errb.String(), "\n") {
		if strings.HasPrefix(l, "[obs] stream reading:") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("-progress printed stream-reading lines %q, want one, %q", lines, want)
	}
	if !strings.Contains(errb.String(), "phase breakdown") {
		t.Errorf("-progress output %q lacks the phase breakdown", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-model", "SC"}, bytes.NewReader(in), &out, &errb); code != 1 {
		t.Fatalf("exit code = %d (stderr %q), want 1", code, errb.String())
	}
	if strings.Contains(errb.String(), "[obs]") {
		t.Errorf("a run without -progress printed %q", errb.String())
	}
}

// TestReadErrorAfterVerdicts: when reading fails at trace k, the
// verdicts of traces 0 to k−1 are printed, then the one positioned
// error, and the run exits 2, at every worker count: a text trace that
// does not decode, a binary stream cut inside its last frame, and a
// stream whose reader fails after its last whole trace.
func TestReadErrorAfterVerdicts(t *testing.T) {
	corpus, err := oracle.LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var traces []*oracle.Trace
	for _, e := range corpus {
		traces = append(traces, e.Trace)
	}
	k := len(traces) - 1
	var text, head, bin bytes.Buffer
	if err := oracle.WriteTraces(&text, traces...); err != nil {
		t.Fatal(err)
	}
	if err := oracle.WriteTraces(&head, traces[:k]...); err != nil {
		t.Fatal(err)
	}
	if err := oracle.WriteTracesBinary(&bin, traces...); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(text.Bytes(), []byte("\n"))
	for _, c := range []struct {
		name    string
		data    []byte
		fail    error  // the reader's error after data; nil = io.EOF
		k       int    // traces before the error
		errLine string // a part of the error's line
	}{
		{"undecodable", append(slices.Clip(text.Bytes()), "trace bad\nthread 0\nzz 1\nend\n"...), nil,
			len(traces), fmt.Sprintf("check: trace: line %d: unknown directive", lines+3)},
		// A binary stream numbers its traces from 1 in its errors.
		{"cut binary", bin.Bytes()[:bin.Len()-7], nil, k, fmt.Sprintf("check: trace: binary: trace %d, byte ", k+1)},
		{"read error", head.Bytes(), errors.New("producer died"), k, "producer died"},
	} {
		var prefix bytes.Buffer
		if err := oracle.WriteTraces(&prefix, traces[:c.k]...); err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []string{"1", "2", "0"} {
			var want, got, errb bytes.Buffer
			args := []string{"-model", "all", "-parallel", parallel}
			if code := run(args, bytes.NewReader(prefix.Bytes()), &want, &errb); code != 1 {
				t.Fatalf("%s: the traces before the error exited %d: %s", c.name, code, errb.String())
			}
			in := io.Reader(bytes.NewReader(c.data))
			if c.fail != nil {
				in = io.MultiReader(in, iotest.ErrReader(c.fail))
			}
			code := run(args, in, &got, &got)
			rest, ok := bytes.CutPrefix(got.Bytes(), want.Bytes())
			if code != 2 || !ok || bytes.Count(rest, []byte("\n")) != 1 || !strings.Contains(string(rest), c.errLine) {
				t.Errorf("%s at -parallel %s exited %d, printed\n%s\nwant 2, the verdicts of the %d traces before the error, then one line holding %q",
					c.name, parallel, code, got.String(), c.k, c.errLine)
			}
		}
	}
}

// TestLaterFileWithNoTrace: files good and bad-empty print good's
// verdicts, then an error naming bad-empty, and exit 2.
func TestLaterFileWithNoTrace(t *testing.T) {
	dir := t.TempDir()
	good, empty := filepath.Join(dir, "good"), filepath.Join(dir, "bad-empty")
	if err := os.WriteFile(good, corpusText(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "2", "0"} {
		var want, got, errb bytes.Buffer
		if code := run([]string{"-json", "-parallel", parallel, good}, strings.NewReader(""), &want, &errb); code != 1 {
			t.Fatalf("good alone exited %d: %s", code, errb.String())
		}
		code := run([]string{"-json", "-parallel", parallel, good, empty}, strings.NewReader(""), &got, &got)
		if wantAll := want.String() + "check: " + empty + ": no trace in the input\n"; code != 2 || got.String() != wantAll {
			t.Errorf("good bad-empty at -parallel %s exited %d, printed\n%s\nwant 2 and\n%s", parallel, code, got.String(), wantAll)
		}
	}
}
