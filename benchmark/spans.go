package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package
// around the call (no tracing lives inside the program). Spans of one
// request — an item, a trace, a campaign — share ID; Parent is the
// index of the span that caused this one, or -1.
type span struct {
	Name   string
	ID     int
	Lane   int // goroutine lane, for display
	Parent int
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, id, lane, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.base)
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Lane: lane, Parent: parent, Start: now})
	i := len(l.spans) - 1
	l.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	if l == nil || i < 0 {
		return 0
	}
	now := time.Since(l.base)
	l.mu.Lock()
	l.spans[i].End = now
	d := now - l.spans[i].Start
	l.mu.Unlock()
	return d
}

// traceEvent is one complete ("X") event of the trace-event format that
// chrome://tracing and Perfetto load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as trace-event JSON. args.span is the span's
// own index, args.parent the span that caused it (-1 for roots) and
// args.id the request it belongs to; a span's self time is its duration
// minus the part its children cover.
func (l *spanLog) write(path, category string) error {
	l.mu.Lock()
	events := make([]traceEvent, len(l.spans))
	for i, s := range l.spans {
		events[i] = traceEvent{
			Name: s.Name, Cat: category, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"span": i, "parent": s.Parent, "id": s.ID},
		}
	}
	l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
