package oracle

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// genReader is a lazy generated TraceReader: trace i is built when Next
// is asked for it, valid under every model, and unique. It fails with
// fail after n traces (io.EOF when fail is nil); n < 0 never ends. It
// counts the traces it returned that the test's emit has not seen, and
// keeps the most it ever saw.
type genReader struct {
	n       int
	fail    error
	read    int
	emitted atomic.Int64
	held    int
}

func (g *genReader) Next() (*Trace, error) {
	if g.read == g.n {
		if g.fail == nil {
			return nil, io.EOF
		}
		return nil, g.fail
	}
	in := fmt.Sprintf("mctrace 1\ntrace g%d\nthread 0\nw 0x100 %d\nr 0x100 %d\nend\n", g.read, g.read+1, g.read+1)
	ts, err := trace.DecodeAll(strings.NewReader(in))
	if err != nil {
		return nil, err
	}
	g.read++
	g.held = max(g.held, g.read-int(g.emitted.Load()))
	return ts[0], nil
}

// streamWorkers are the worker counts every CheckStream test runs at.
var streamWorkers = []int{1, 2, 0}

// TestCheckStreamReadErrorAfterK: a reader that fails after trace k
// gets exactly traces 0 to k−1 emitted, in order and each with a
// verdict per model, and CheckStream returns the reader's error.
func TestCheckStreamReadErrorAfterK(t *testing.T) {
	const k = 37
	models := Models()
	for _, workers := range streamWorkers {
		broken := errors.New("producer died")
		rd := &genReader{n: k, fail: broken}
		next := 0
		_, err := CheckStream(rd, models, workers, Options{}, func(i int, verdicts []Verdict, err error) error {
			if i != next || err != nil || len(verdicts) != len(models) {
				t.Fatalf("workers %d: emitted trace %d (%d verdicts, %v), want trace %d with %d", workers, i, len(verdicts), err, next, len(models))
			}
			for mi, v := range verdicts {
				if v.Index != i || v.Model != models[mi] || !v.Valid {
					t.Fatalf("workers %d: trace %d's verdict %d is %+v", workers, i, mi, v)
				}
			}
			rd.emitted.Add(1)
			next++
			return nil
		})
		if err != broken || next != k {
			t.Errorf("workers %d: %d traces emitted, then %v; want %d, then %v", workers, next, err, k, broken)
		}
	}
}

// TestCheckStreamWindowBound: over a lazy stream of 10 000 traces, no
// more than the window's bound are ever read and not yet emitted, and
// every trace is emitted, in order.
func TestCheckStreamWindowBound(t *testing.T) {
	const n = 10000
	for _, workers := range streamWorkers {
		rd := &genReader{n: n}
		next := 0
		stats, err := CheckStream(rd, Models(), workers, Options{}, func(i int, verdicts []Verdict, err error) error {
			if i != next || err != nil {
				t.Fatalf("workers %d: emitted trace %d (%v), want trace %d", workers, i, err, next)
			}
			rd.emitted.Add(1)
			next++
			return nil
		})
		if err != nil || next != n {
			t.Fatalf("workers %d: %d traces emitted, then %v; want %d, then nil", workers, next, err, n)
		}
		w := workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if bound := streamWindow * w; rd.held > bound {
			t.Errorf("workers %d: %d traces read and not emitted at once, bound %d", workers, rd.held, bound)
		}
		if want := uint64(n * len(Models())); stats.Dedupe.Checks != want {
			t.Errorf("workers %d: the memo counted %d checks, want %d", workers, stats.Dedupe.Checks, want)
		}
	}
}

// TestCheckStreamEmitErrorStops: an emit error stops the loop on an
// endless stream: CheckStream returns it, emit is not called again, and
// no goroutine it started is left behind.
func TestCheckStreamEmitErrorStops(t *testing.T) {
	const stopAt = 5
	for _, workers := range streamWorkers {
		base := runtime.NumGoroutine()
		full := errors.New("disk full")
		calls := 0
		_, err := CheckStream(&genReader{n: -1}, Models(), workers, Options{}, func(i int, _ []Verdict, _ error) error {
			if calls++; i == stopAt {
				return full
			}
			return nil
		})
		if err != full || calls != stopAt+1 {
			t.Errorf("workers %d: emit called %d times, then %v; want %d, then %v", workers, calls, err, stopAt+1, full)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("workers %d: %d goroutines after CheckStream returned, %d before it", workers, n, base)
		}
	}
}
