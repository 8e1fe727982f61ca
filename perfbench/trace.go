package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into the program: its name, when it
// started and ended (nanoseconds since the run began), the span that
// caused it, and the request it belongs to (the invocations of one client
// request share Trace).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how the untraced runs call it.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so a parent span can be named before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// span builds a span with a fresh id.
func (t *tracer) span(name string, parent, trace uint64, start, end time.Time) span {
	return t.spanID(t.id(), name, parent, trace, start, end)
}

func (t *tracer) spanID(id uint64, name string, parent, trace uint64, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	return span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
}

// add files finished spans. Load goroutines buffer their spans locally
// and add them once, so recording costs no lock per invocation.
func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// call times f as one span and files it.
func (t *tracer) call(name string, parent uint64, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.add(t.span(name, parent, 0, start, time.Now()))
	return err
}

// write saves the spans as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(map[string]any{"run": meta, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
