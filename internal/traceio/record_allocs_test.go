package traceio_test

import (
	"bytes"
	"testing"

	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// TestRecordCodecAllocs pins the record codec's allocations over the
// records of the ip plan (200 pairs, seed 1). Decoding costs the record,
// its line and one exactly-sized copy per kind of list — never one per
// hop, address or string — and appending a line into a reused buffer
// costs nothing. Through encoding/json the same records took 89.7
// allocations each to decode and 1.2 to encode.
func TestRecordCodecAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("traces 200 pairs")
	}
	u, rc, err := experiments.PlanSurvey("ip", experiments.SurveyConfig{Pairs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := &survey.MemorySink{}
	rc.Workers, rc.Sinks = 2, []survey.Sink{mem}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	recs := mem.Records
	var jsonl bytes.Buffer
	for _, rec := range recs {
		if err := rec.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
	}
	n := float64(len(recs))
	decode := testing.AllocsPerRun(10, func() {
		if err := traceio.DecodeSurveyRecords(bytes.NewReader(jsonl.Bytes()), func(*traceio.SurveyRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}) / n
	buf := make([]byte, 0, 64<<10)
	encode := testing.AllocsPerRun(10, func() {
		for _, rec := range recs {
			var err error
			if buf, err = traceio.AppendRecordLine(buf[:0], rec); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	t.Logf("%d records, %d B: decode %.2f allocs/record, appendRecordLine %.2f",
		len(recs), jsonl.Len(), decode, encode)
	for _, c := range []struct {
		name       string
		got, bound float64
	}{
		{"DecodeSurveyRecords", decode, 8},
		{"appendRecordLine", encode, 0},
	} {
		if c.got > c.bound {
			t.Errorf("%s: %.2f allocs/record, pinned at most %v", c.name, c.got, c.bound)
		}
	}
}
