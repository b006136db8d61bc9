package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pmpr/internal/obs"
)

// span is one timed call into a layer. Spans form a tree through
// Parent; every span of one HTTP request carries the same Req.
type span struct {
	ID, Parent, Req uint64
	Name            string
	// Attr labels the span's outcome, e.g. "topk/hit" on a handler span.
	Attr string
	// Lane is the client connection a request span ran on (0 = none);
	// it becomes the trace-viewer thread.
	Lane       int
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing; the untraced solve and setup still read the clock at
// each of their few call sites, and untraced requests never reach one.
type tracer struct {
	out  *obs.Trace // timestamps are relative to its creation
	ids  atomic.Uint64
	mu   sync.Mutex
	list []span
}

func newTracer() *tracer { return &tracer{out: obs.NewTrace()} }

// newID returns a fresh span id (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span, assigning it an id if it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.list = append(t.list, s)
	t.mu.Unlock()
}

// begin opens a span that ends when its end method is called.
func (t *tracer) begin(name string, parent uint64) *openSpan {
	return &openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Name: name, Start: time.Now()}}
}

// openSpan is a span still running.
type openSpan struct {
	t *tracer
	s span
}

func (o *openSpan) end() { o.s.End = time.Now(); o.t.add(o.s) }

// spans returns a copy of everything recorded so far.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.list...)
}

// writeFile writes the spans as Chrome trace events (load the file in
// Perfetto). A span without a lane is drawn on its nearest ancestor's.
func (t *tracer) writeFile(path string) error {
	all := t.spans()
	byID := make(map[uint64]*span, len(all))
	for i := range all {
		byID[all[i].ID] = &all[i]
	}
	for _, s := range all {
		lane := s.Lane
		for p := byID[s.Parent]; lane == 0 && p != nil; p = byID[p.Parent] {
			lane = p.Lane
		}
		t.out.Complete(s.Name, "perf", lane, s.Start, s.End.Sub(s.Start), map[string]interface{}{
			"span_id": s.ID, "parent_id": s.Parent, "request_id": s.Req, "attr": s.Attr,
		})
	}
	return t.out.WriteFile(path)
}
