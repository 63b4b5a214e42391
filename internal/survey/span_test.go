package survey

import (
	"bytes"
	"testing"

	"mmlpt/internal/mda"
	"mmlpt/internal/traceio"
)

// lineSink encodes records into a buffer with the canonical per-record
// encoder, mirroring what the fleet runner ships.
type lineSink struct{ buf *bytes.Buffer }

func (s lineSink) Emit(rec *traceio.SurveyRecord) error { return rec.WriteJSONL(s.buf) }
func (s lineSink) Close() error                         { return nil }

// TestSpanConcatenationByteIdentical: running the survey span by span
// and concatenating the record bytes in span order must reproduce the
// whole-survey record stream exactly — the invariant the distributed
// control plane's work units rely on.
func TestSpanConcatenationByteIdentical(t *testing.T) {
	t.Parallel()
	u := Generate(GenConfig{Seed: 33, Pairs: 30})
	base := RunConfig{Algo: AlgoMDALite, Retries: 1, Workers: 3, Trace: mda.Config{Seed: 33}}

	var whole bytes.Buffer
	rc := base
	rc.Sinks = []Sink{lineSink{&whole}}
	if _, err := Run(u, rc); err != nil {
		t.Fatal(err)
	}

	total := JobCount(u, base)
	pairs := JobPairs(u, base)
	if total != 30 || len(pairs) != total {
		t.Fatalf("JobCount=%d JobPairs len=%d, want 30", total, len(pairs))
	}

	var cat bytes.Buffer
	for start := 0; start < total; start += 7 {
		count := 7
		if start+count > total {
			count = total - start
		}
		var span bytes.Buffer
		rc := base
		rc.SpanStart, rc.SpanCount = start, count
		rc.Workers = 1 + start%3 // worker count must not matter
		rc.Sinks = []Sink{lineSink{&span}}
		if _, err := Run(u, rc); err != nil {
			t.Fatal(err)
		}
		// Each span's records carry their global pair indices.
		i := start
		err := traceio.DecodeSurveyRecords(bytes.NewReader(span.Bytes()), func(sr *traceio.SurveyRecord) error {
			if sr.PairIndex != pairs[i] {
				t.Fatalf("span [%d,%d) record %d is pair %d, job list says %d", start, start+count, i-start, sr.PairIndex, pairs[i])
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cat.Write(span.Bytes())
	}
	if !bytes.Equal(cat.Bytes(), whole.Bytes()) {
		t.Fatalf("concatenated span bytes (%d) differ from whole-run bytes (%d)", cat.Len(), whole.Len())
	}
}

// TestSpanRejectsBadBounds: out-of-range spans fail fast.
func TestSpanRejectsBadBounds(t *testing.T) {
	t.Parallel()
	u := Generate(GenConfig{Seed: 33, Pairs: 10})
	base := RunConfig{Algo: AlgoMDALite, Trace: mda.Config{Seed: 33}}

	rc := base
	rc.SpanStart, rc.SpanCount = 8, 5
	if _, err := Run(u, rc); err == nil {
		t.Fatal("out-of-range span was accepted")
	}

	rc = base
	rc.SpanStart, rc.SpanCount = -1, 2
	if _, err := Run(u, rc); err == nil {
		t.Fatal("negative span start was accepted")
	}
}
