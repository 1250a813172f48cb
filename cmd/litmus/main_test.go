package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: what the suite cannot run exits 2 with one line
// naming the fault, before any execution and with nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray"}, `unexpected argument "stray"`},
		{[]string{"-show", "-seed", "3"}, "-show takes no other flag, not -seed"},
		{[]string{"-passes", "0"}, "-passes must be positive, got 0"},
		{[]string{"-scenario", "nope"}, `unknown scenario "nope"`},
		{[]string{"-scenario", "mesi-sc"}, "checked against SC; the litmus suite needs a TSO scenario"},
		{[]string{"-bug", "TSO-CC+no-epoch-ids"}, `bug "TSO-CC+no-epoch-ids" applies to protocol TSO-CC, not MESI`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", tc.args, stdout.String())
		}
		if got := stderr.String(); !strings.HasPrefix(got, "litmus: ") || !strings.Contains(got, tc.want) {
			t.Errorf("%v: stderr %q, want a litmus: line containing %q", tc.args, got, tc.want)
		}
	}
}

// TestShowListsSuite: -show prints every test of the suite, numbered,
// and their count.
func TestShowListsSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-show"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasSuffix(out, "\n38 tests\n") {
		t.Fatalf("-show does not end with a count of 38 tests:\n%s", out)
	}
	numbered := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") {
			numbered++
		}
	}
	if numbered != 38 {
		t.Fatalf("-show numbers %d tests, want 38", numbered)
	}
}
