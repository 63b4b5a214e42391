package survey_test

// A survey pair's simulator state ends with its trace: a span traced
// twice on one universe must produce the bytes a freshly built universe
// produces. A fleet runner does exactly that when it re-traces a unit
// whose lease it lost. These tests plan through experiments.PlanSurvey,
// which imports survey, so they live in the external test package.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// bufSink encodes records with the canonical per-record encoder, the
// bytes a fleet runner ships.
type bufSink struct{ buf *bytes.Buffer }

func (s bufSink) Emit(rec *traceio.SurveyRecord) error { return rec.WriteJSONL(s.buf) }
func (s bufSink) Close() error                         { return nil }

// spanBytes traces jobs [0, count) of u at one worker and returns the
// record bytes a fleet runner would ship for that span.
func spanBytes(t *testing.T, u *survey.Universe, rc survey.RunConfig, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rc.Workers = 1
	rc.SpanStart, rc.SpanCount = 0, count
	rc.Sinks = []survey.Sink{bufSink{&buf}}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRetraceOnOneUniverseEqualsFresh: a second trace of a span on the
// same universe starts from the state a fresh universe starts from. At
// router level the multilevel tracer's IP-ID series read the routers'
// counters, so a session surviving the first trace would shift them.
func TestRetraceOnOneUniverseEqualsFresh(t *testing.T) {
	for _, level := range []string{"ip", "router"} {
		t.Run(level, func(t *testing.T) {
			t.Parallel()
			cfg := experiments.SurveyConfig{Pairs: 200, Seed: 3}
			u, rc, err := experiments.PlanSurvey(level, cfg)
			if err != nil {
				t.Fatal(err)
			}
			first := spanBytes(t, u, rc, 64)
			again := spanBytes(t, u, rc, 64)
			fresh, rc2, err := experiments.PlanSurvey(level, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := spanBytes(t, fresh, rc2, 64)
			digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:16] }
			t.Logf("first %s, again %s, fresh %s", digest(first), digest(again), digest(want))
			if !bytes.Equal(first, want) {
				t.Fatalf("first trace %s differs from a fresh universe's %s", digest(first), digest(want))
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("re-trace on one universe %s differs from a fresh universe's %s", digest(again), digest(want))
			}
		})
	}
}

// liveHeap is the heap still reachable after full collections. The
// second collection empties the sync.Pool victim caches the first one
// filled, so pooled scratch does not count as retained.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// retainedBy returns how far the live heap grows across survey.Run of
// a freshly planned universe of the given size, with the Result
// discarded: what the run leaves behind in the universe. It also
// returns how many pairs the run traced.
func retainedBy(t *testing.T, level string, pairs int) (int64, int) {
	t.Helper()
	u, rc, err := experiments.PlanSurvey(level, experiments.SurveyConfig{Pairs: pairs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc.Workers = 2
	jobs := survey.JobCount(u, rc)
	before := liveHeap()
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(u)
	return after - before, jobs
}

// retainedPerPairBound bounds the live heap survey.Run may leave behind
// per traced pair. A run that kept each pair's fakeroute session and
// compiled forwarding view read ~2.9 KB/pair at ip level and ~3.8 KB/pair
// at router level; ending them with the trace reads ~0.
const retainedPerPairBound = 1024

// TestSurveyRetainsNoPerPairState: once survey.Run returns, the network
// holds nothing of a traced pair but its ground-truth path. The heap the
// run leaves behind is measured at two sizes, so fixed residue cancels
// and what is left is growth per pair. Not parallel: other tests'
// allocations would land in the measurement.
func TestSurveyRetainsNoPerPairState(t *testing.T) {
	for _, level := range []string{"ip", "router"} {
		gs, js := retainedBy(t, level, 200)
		gl, jl := retainedBy(t, level, 400)
		perPair := float64(gl-gs) / float64(jl-js)
		t.Logf("%s: %d B retained over %d traced pairs, %d B over %d: %.0f B/pair", level, gs, js, gl, jl, perPair)
		if perPair > retainedPerPairBound {
			t.Errorf("%s: survey.Run leaves %.0f B/pair live, want <= %d", level, perPair, retainedPerPairBound)
		}
	}
}
