package trace

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// TestHandWrittenTrace: the friendly subset — no explicit keys, no rf,
// no co — resolves reads by value and defaults co to write order.
func TestHandWrittenTrace(t *testing.T) {
	const in = `mctrace 1
# message passing, forbidden outcome
trace mp-forbidden
thread 1
w 0x100 1
w 0x140 1
thread 2
r 0x140 1
r 0x100 0
end
`
	traces, err := DecodeAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Name != "mp-forbidden" {
		t.Fatalf("decoded %+v", traces)
	}
	x, err := traces[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	res := memmodel.NewChecker().Check(x, memmodel.TSO{})
	if res.Valid {
		t.Fatal("forbidden MP outcome accepted under TSO")
	}
	if res.Kind != memmodel.ViolationGHB {
		t.Fatalf("violation kind = %v, want ghb", res.Kind)
	}
	if memmodel.NewChecker().Check(x, memmodel.RMO{}).Valid != true {
		t.Fatal("MP outcome must be allowed under RMO without fences")
	}
}

func TestFenceAndRMWLines(t *testing.T) {
	const in = `mctrace 1
trace
thread 0
w 0x100 1
f ss
w 0x140 1
thread 1
u 0x140 1 2
f full
r 0x100 1
end
`
	traces, err := DecodeAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x, err := traces[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	if !memmodel.NewChecker().Check(x, memmodel.PSO{}).Valid {
		t.Fatal("fenced MP with RMW should be valid under PSO")
	}
}

func TestVersionRejected(t *testing.T) {
	for _, in := range []string{
		"mctrace 2\ntrace\nend\n",
		"mctrace 0\ntrace\nend\n",
		"mctrace nine\ntrace\nend\n",
		"mctrace\ntrace\nend\n",
		"nottrace 1\n",
	} {
		if _, err := DecodeAll(strings.NewReader(in)); err == nil {
			t.Errorf("header %q accepted, want version/header error", strings.SplitN(in, "\n", 2)[0])
		}
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	// Magic + version 2.
	if _, err := DecodeAllBinary(strings.NewReader("MCVB\x02")); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("binary version 2 accepted: %v", err)
	}
	if _, err := DecodeAllBinary(strings.NewReader("NOPE\x01")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("binary bad magic accepted: %v", err)
	}
}

// TestLinePreciseErrors: decoder errors name the offending 1-based
// line.
func TestLinePreciseErrors(t *testing.T) {
	cases := []struct {
		in       string
		wantLine string
	}{
		{"mctrace 1\ntrace t\nthread 0\nr 0x100\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nr 0x100 1\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw zzz 1\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nf sideways\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nrf 0:0\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nbogus 1 2\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread -1\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1\n", "line 4"}, // missing end
		{"mctrace 1\ntrace a\ntrace b\n", "line 3"},
		// The ceilings the binary format shares: int-typed fields stop
		// below 1<<31, names at 1<<16 bytes.
		{"mctrace 1\ntrace t\nthread 2147483648\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 4294967296\nend\n", "line 3"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1 @2147483648\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1 @0.2147483648\nend\n", "line 4"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 2147483648:0 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 0:2147483648 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nr 0x100 0\nrf 0:0.2147483648 init\nend\n", "line 5"},
		{"mctrace 1\ntrace t\nthread 0\nw 0x100 1\nco 0x100 0:4294967296\nend\n", "line 5"},
		{"mctrace 1\n# padding\ntrace " + strings.Repeat("n", maxNameLen+1) + "\nend\n", "line 3"},
	}
	for _, c := range cases {
		_, err := DecodeAll(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("input %q accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantLine) {
			t.Errorf("input %q: error %q does not name %s", c.in, err, c.wantLine)
		}
	}
}

// TestDecoderStreaming: Next yields traces one at a time and io.EOF
// at the end.
func TestDecoderStreaming(t *testing.T) {
	const in = `mctrace 1
trace a
thread 0
w 0x100 1
end
trace b
thread 0
r 0x100 0
end
`
	d := NewDecoder(strings.NewReader(in))
	a, err := d.Next()
	if err != nil || a.Name != "a" {
		t.Fatalf("first = %v, %v", a, err)
	}
	b, err := d.Next()
	if err != nil || b.Name != "b" {
		t.Fatalf("second = %v, %v", b, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("third err = %v, want io.EOF", err)
	}
}

// TestExecutionErrors: structurally broken traces fail at Execution
// time with the trace named.
func TestExecutionErrors(t *testing.T) {
	cases := []string{
		// Ambiguous read value (two writes of 1).
		"mctrace 1\ntrace amb\nthread 0\nw 0x100 1\nw 0x100 1\nthread 1\nr 0x100 1\nend\n",
		// Value never produced.
		"mctrace 1\ntrace missing\nthread 0\nr 0x100 7\nend\n",
		// rf references an unknown event.
		"mctrace 1\ntrace dangling\nthread 0\nr 0x100 0\nrf 0:0 3:9\nend\n",
		// co misses a registered write.
		"mctrace 1\ntrace shortco\nthread 0\nw 0x100 1\nw 0x100 2\nco 0x100 0:0\nend\n",
		// duplicate explicit key.
		"mctrace 1\ntrace dupkey\nthread 0\nw 0x100 1 @0\nw 0x100 2 @0\nend\n",
		// duplicate thread.
		"mctrace 1\ntrace dupthread\nthread 0\nthread 0\nend\n",
	}
	for _, in := range cases {
		traces, err := DecodeAll(strings.NewReader(in))
		if err != nil {
			t.Errorf("input %q failed at decode (%v), want Execution-time error", in, err)
			continue
		}
		if _, err := traces[0].Execution(); err == nil {
			t.Errorf("input %q materialized, want error", in)
		}
	}
}

// TestValueResolutionMatchesPins: a trace with explicit rf/co and its
// pin-free equivalent materialize identically when values are
// unambiguous.
func TestValueResolutionMatchesPins(t *testing.T) {
	const pinned = `mctrace 1
trace p
thread 1
w 0x100 1
thread 2
r 0x100 1
rf 2:0 1:0
co 0x100 1:0
end
`
	const inferred = `mctrace 1
trace p
thread 1
w 0x100 1
thread 2
r 0x100 1
end
`
	tp, err := DecodeAll(strings.NewReader(pinned))
	if err != nil {
		t.Fatal(err)
	}
	ti, err := DecodeAll(strings.NewReader(inferred))
	if err != nil {
		t.Fatal(err)
	}
	xp, err := tp[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	xi, err := ti[0].Execution()
	if err != nil {
		t.Fatal(err)
	}
	rp := memmodel.NewChecker().Check(xp, memmodel.SC{})
	ri := memmodel.NewChecker().Check(xi, memmodel.SC{})
	if !rp.Valid || !ri.Valid {
		t.Fatalf("valid trace rejected: pinned=%v inferred=%v", rp.Valid, ri.Valid)
	}
}

// TestDecoderFieldsMatchStringsFields: the decoder's line splitter
// separates exactly where strings.Fields does — ASCII and Unicode white
// space, invalid UTF-8 kept as field bytes — from line to line in one
// buffer.
func TestDecoderFieldsMatchStringsFields(t *testing.T) {
	var d Decoder
	for _, line := range []string{
		"", " ", "a", " a ", "r 0x10 1 a @3.1", "co\t0x100  0:1\v1:2\f2:3\r", "w\n1",
		"ffull", "f full @2", "\u3000trace\u2003x\u00a0", "n\u0085el", "a\xffb \xc2 c\x80", "\u00e9 \u00e8",
		"\x1c\x1f\x00 x", strings.Repeat("k ", 70),
	} {
		if got, want := d.fields(line), strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("fields(%q) = %q, strings.Fields gives %q", line, got, want)
		}
	}
}
