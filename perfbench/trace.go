package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed step at a layer boundary. Spans the benchmark times
// itself carry start and end; spans whose length the program reports (an
// answer's stats.duration_ns, a pass's duration) carry only DurNs and hang
// under the span of the call that returned them. Spans of one request share
// Trace.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Trace  int              `json:"trace"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns,omitempty"` // since the run began
	End    int64            `json:"end_ns,omitempty"`
	DurNs  int64            `json:"dur_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	trace int
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// newTrace returns a fresh request identifier.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// timed records a span the benchmark timed itself and returns its id.
func (t *tracer) timed(trace, parent int, name string, start time.Time, dur time.Duration, counts map[string]int64) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Trace: trace, Name: name, Start: int64(start.Sub(t.t0)), DurNs: int64(dur), Counts: counts}
	s.End = s.Start + s.DurNs
	return t.add(s)
}

// reported records a span whose duration the program reported.
func (t *tracer) reported(trace, parent int, name string, dur time.Duration, counts map[string]int64) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Trace: trace, Name: name, DurNs: int64(dur), Counts: counts})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
