package main

import (
	"sync"
	"time"
)

// The benchmark's own trace: spans recorded around each call into a
// layer, from outside the layer. Nothing here reads the program's span
// tree or EpochStats.Phases, so the program is free to restructure both.

// span is one finished interval. Times are nanoseconds since the tracer
// started; Op groups the spans of one operation.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how an untraced run pays nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	t  *tracer
	id int
}

// start opens a span under parent (the zero spanRef for a root) in
// operation op.
func (t *tracer) start(parent spanRef, op int, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent.id, Op: op, Name: name, Start: now, End: -1,
	})
	return spanRef{t: t, id: len(t.spans)}
}

// record adds a span that has already ended: an interval timed by other
// means, such as one sampled request of a load generator.
func (t *tracer) record(parent spanRef, op int, name string, start, end time.Time, counts ...any) {
	if t == nil {
		return
	}
	s := t.start(parent, op, name)
	s.end(counts...)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[s.id-1]
	sp.Start, sp.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
}

// end closes the span; counts are alternating name, value pairs.
func (s spanRef) end(counts ...any) {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.id-1]
	sp.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if sp.Counts == nil {
			sp.Counts = make(map[string]int64)
		}
		sp.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
}

// finished returns the closed spans.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}
