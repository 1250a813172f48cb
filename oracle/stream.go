package oracle

import (
	"io"
	"runtime"
	"sync"
)

// streamWindow is how many traces per worker CheckStream holds at most,
// read and not yet emitted.
const streamWindow = 4

// StreamStats is what the Checkers of one CheckStream counted: every
// worker's phases and fast-path outcomes, and the memo's counters.
type StreamStats struct {
	Phases   PhaseSnapshot
	Fastpath FastpathStats
	Dedupe   Dedupe
}

// streamJob is one trace in CheckStream's window.
type streamJob struct {
	index    int
	trace    *Trace
	verdicts []Verdict
	err      error
	decided  chan struct{} // closed once the trace is decided
}

// CheckStream decides every trace rd returns against each of models on
// workers goroutines (0 = GOMAXPROCS), and hands emit, in input order,
// each trace's position in rd with its verdicts, one per model in the
// order models lists them, or with the error CheckTrace failed it with.
// A worker holds one Checker per model, all over opts.Memo (a new memo
// when it is nil), and checks a trace's models in the order given: list
// them strongest first, as Models() does, and a trace decided valid
// under one model is answered for the weaker ones without a check.
//
// rd is read on a goroutine of its own, and emit is called on the
// caller's as soon as a trace and every trace before it are decided, so
// a producer that waits for a verdict before it writes more gets it. At
// most streamWindow traces per worker are read and not yet emitted.
//
// CheckStream returns once every goroutine it started has ended: nil
// after rd's io.EOF; rd's first other error, once every trace before it
// is emitted; or emit's first error, after which emit is not called
// again and rd, once its current Next returns, is read for at most the
// window's traces.
func CheckStream(rd TraceReader, models []string, workers int, opts Options,
	emit func(index int, verdicts []Verdict, err error) error) (StreamStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Memo == nil {
		opts.Memo = NewMemo()
	}
	lanes := make([][]*Checker, workers)
	for w := range lanes {
		for _, m := range models {
			c, err := NewChecker(m, opts)
			if err != nil {
				return StreamStats{}, err
			}
			lanes[w] = append(lanes[w], c)
		}
	}

	// The reader takes a place in the window for each trace it reads and
	// hands the trace to a worker and to the emitter, which gives the
	// place back once the trace is emitted. inOrder and work hold as
	// many traces as the window, so the reader never waits to hand one.
	window := make(chan struct{}, streamWindow*workers)
	inOrder, work := make(chan *streamJob, cap(window)), make(chan *streamJob, cap(window))
	stop := make(chan struct{})
	var readErr error
	go func() {
		defer close(inOrder)
		defer close(work)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case window <- struct{}{}:
			}
			t, err := rd.Next()
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			j := &streamJob{index: i, trace: t, verdicts: make([]Verdict, len(models)), decided: make(chan struct{})}
			inOrder <- j
			work <- j
		}
	}()
	var wg sync.WaitGroup
	for _, checkers := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				for mi, c := range checkers {
					// A trace that cannot be materialized fails every
					// model with the same error.
					if j.verdicts[mi], j.err = c.CheckTrace(j.trace, j.index); j.err != nil {
						j.verdicts = nil
						break
					}
				}
				j.trace = nil
				close(j.decided)
			}
		}()
	}

	var emitErr error
	for j := range inOrder {
		<-j.decided
		if emitErr == nil {
			if emitErr = emit(j.index, j.verdicts, j.err); emitErr != nil {
				close(stop)
			}
			<-window
		}
	}
	wg.Wait()
	stats := StreamStats{Dedupe: opts.Memo.Stats()}
	for _, checkers := range lanes {
		for _, c := range checkers {
			stats.Phases = stats.Phases.Merge(c.Phases())
			stats.Fastpath.Merge(c.Fastpath())
		}
	}
	if emitErr != nil {
		return stats, emitErr
	}
	return stats, readErr
}
