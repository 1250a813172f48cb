//go:build unix

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestManyFilesUnderLowFileLimit: check reads more one-trace files than
// the process may hold open at once — each is closed once decoded — and
// decides every trace.
func TestManyFilesUnderLowFileLimit(t *testing.T) {
	const limit, files = 64, 200
	dir := t.TempDir()
	args := []string{"-model", "SC"}
	for i := 0; i < files; i++ {
		name := filepath.Join(dir, fmt.Sprintf("t%d.txt", i))
		trace := fmt.Sprintf("mctrace 1\ntrace t%d\nthread 0\nw 0x100 1\nr 0x100 1\nend\n", i)
		if err := os.WriteFile(name, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, name)
	}

	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &saved); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	low := saved
	low.Cur = min(low.Cur, limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(""), &out, &errb)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &saved); err != nil {
		t.Fatalf("restoring the file limit: %v", err)
	}
	if code != 0 {
		t.Fatalf("%d files under a limit of %d open exited %d: %s", files, low.Cur, code, errb.String())
	}
	if n := strings.Count(out.String(), "SC valid"); n != files {
		t.Fatalf("%d verdicts, want %d:\n%s", n, files, out.String())
	}
}
