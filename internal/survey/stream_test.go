package survey

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mmlpt/internal/mda"
	"mmlpt/internal/traceio"
)

// TestStreamingSinksMatchResult: the streamed records must agree with
// the traced outcomes — same order, same counts, the aggregate folding
// exactly what was traced — and survive a JSONL round trip losslessly.
func TestStreamingSinksMatchResult(t *testing.T) {
	t.Parallel()
	u := Generate(GenConfig{Seed: 21, Pairs: 50})
	mem := &MemorySink{}
	agg := NewAggregateSink()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	jsonl := NewJSONLSink(path)
	res, err := Run(u, RunConfig{
		Algo: AlgoMDALite, Retries: 1, Workers: 4,
		Trace: mda.Config{Seed: 21},
		Sinks: []Sink{jsonl, mem, agg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	if len(mem.Records) != len(res.Outcomes) {
		t.Fatalf("streamed %d records for %d outcomes", len(mem.Records), len(res.Outcomes))
	}
	for i, rec := range mem.Records {
		if rec.PairIndex != res.Outcomes[i].PairIndex {
			t.Fatalf("record %d is pair %d, outcome is pair %d", i, rec.PairIndex, res.Outcomes[i].PairIndex)
		}
	}
	if agg.Agg.TotalProbes != res.TotalProbes {
		t.Fatalf("aggregate probes %d, result %d", agg.Agg.TotalProbes, res.TotalProbes)
	}
	lb, measured := 0, 0
	distinct := map[string]bool{}
	for _, o := range res.Outcomes {
		if len(o.Diamonds) > 0 {
			lb++
		}
		measured += len(o.Diamonds)
		for _, d := range o.Diamonds {
			distinct[d.Div+"|"+d.Conv] = true
		}
	}
	if agg.Agg.LBTraces != lb || len(agg.Agg.Measured) != measured || len(agg.Agg.Distinct) != len(distinct) {
		t.Fatalf("aggregate LB traces/measured/distinct %d/%d/%d, outcomes %d/%d/%d",
			agg.Agg.LBTraces, len(agg.Agg.Measured), len(agg.Agg.Distinct), lb, measured, len(distinct))
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var decoded []*traceio.SurveyRecord
	if err := traceio.DecodeSurveyRecords(f, func(sr *traceio.SurveyRecord) error {
		decoded = append(decoded, sr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem.Records, decoded) {
		t.Fatal("JSONL round trip does not reproduce the streamed records")
	}
}
