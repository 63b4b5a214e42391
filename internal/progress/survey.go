// Package progress holds the operational progress counters of a
// (single-machine or fleet-runner) survey run: Survey.
//
// In the layering, progress is a leaf: it imports only the standard
// library, and the survey layer updates its counters for reporting
// (stderr status lines), never for scheduling, so tracing and every
// output byte stay untouched.
package progress

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Survey is a set of atomic counters a streaming survey run updates as
// pairs complete, safe to read concurrently from a reporting goroutine.
// It observes the run without influencing it: rates are wall-clock
// derived and never feed back into tracing decisions, so determinism is
// untouched.
type Survey struct {
	total   atomic.Int64
	done    atomic.Int64
	probes  atomic.Uint64
	records atomic.Int64
	// startNanos anchors the rate computation at Begin time.
	startNanos atomic.Int64
}

// NewSurvey returns a zeroed progress tracker.
func NewSurvey() *Survey {
	p := &Survey{}
	p.startNanos.Store(time.Now().UnixNano())
	return p
}

// Begin (re)anchors the tracker for a run of total pairs: the pairs this
// process traces, so a resumed survey counts only what it has left.
func (p *Survey) Begin(total int) {
	p.total.Store(int64(total))
	p.done.Store(0)
	p.probes.Store(0)
	p.records.Store(0)
	p.startNanos.Store(time.Now().UnixNano())
}

// PairDone records one completed pair and the probes it cost.
func (p *Survey) PairDone(probes uint64) {
	p.done.Add(1)
	p.probes.Add(probes)
}

// RecordEmitted counts one record handed to the sinks.
func (p *Survey) RecordEmitted() { p.records.Add(1) }

// SurveySnapshot is a consistent-enough point-in-time view for reporting.
type SurveySnapshot struct {
	Done, Total int
	Probes      uint64
	Records     int
	Elapsed     time.Duration
	// PairsPerSec and ProbesPerSec are rates over the pairs this process
	// traced.
	PairsPerSec, ProbesPerSec float64
}

// Snapshot reads the counters.
func (p *Survey) Snapshot() SurveySnapshot {
	s := SurveySnapshot{
		Done:    int(p.done.Load()),
		Total:   int(p.total.Load()),
		Probes:  p.probes.Load(),
		Records: int(p.records.Load()),
		Elapsed: time.Duration(time.Now().UnixNano() - p.startNanos.Load()),
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.PairsPerSec = float64(s.Done) / secs
		s.ProbesPerSec = float64(s.Probes) / secs
	}
	return s
}

// String renders a one-line status suitable for periodic stderr output.
func (s SurveySnapshot) String() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	return fmt.Sprintf("%d/%d pairs (%.1f%%), %d probes, %.1f pairs/s, %.0f probes/s",
		s.Done, s.Total, pct, s.Probes, s.PairsPerSec, s.ProbesPerSec)
}
