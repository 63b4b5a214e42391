package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// while a traced run measures and are written out once, at exit. Parent
// is the id of the span that caused this one (-1 for a root); Op is the
// pair, request or unit the span belongs to (-1 when it belongs to the
// pass as a whole), so all spans of one operation share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. The survey workloads trace a strictly serial
// pass, but the atlasd clients and the fleet's HTTP handlers record
// concurrently, so appends take a mutex. A nil *tracer records nothing,
// which is how untraced passes share the traced code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// newTracer pre-sizes the span slice: a traced survey pass records a
// few hundred thousand spans, and growing the slice mid-pass would be
// charged to whichever layer happened to append.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// begin opens a span whose end is not yet known; finish closes it.
func (t *tracer) begin(name string, parent, op int, start time.Time) int {
	return t.add(name, parent, op, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// setOp attaches the operation id once it is known (a pair span opens
// before the pair's index is visible from outside survey.Run).
func (t *tracer) setOp(id, op int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Op = op
	t.mu.Unlock()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of durations minus the children's
}

// totals computes, per span name, the count, total time and self time:
// a span's self time is its duration minus the part its child spans
// cover. Children of one parent never overlap in the serial traced
// passes; where they can (concurrent requests under one pass span) the
// parent's self time is clamped at zero.
func (t *tracer) totals() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		if self := d - child[i]; self > 0 {
			st.Self += time.Duration(self)
		}
		out[s.Name] = st
	}
	return out
}

// write dumps the spans as JSON. The file is the traced run's raw
// record: bench/README.md explains how to read it.
func (t *tracer) write(dir, workload string, meta map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string         `json:"workload"`
		Meta     map[string]any `json:"meta"`
		Spans    []span         `json:"spans"`
	}{workload, meta, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
