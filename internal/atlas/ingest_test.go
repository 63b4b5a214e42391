package atlas_test

import (
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
)

// TestAtlasIngestAllocs pins AddRecord's allocations on a replay: the
// records of a small ip survey, fed again to an atlas that already
// holds their nodes and edges. What remains is the amortized growth of
// each node's provenance, 3.13 allocations per record. Building each
// record's topo.Graph first, as ingest once did, cost 64.3 here.
func TestAtlasIngestAllocs(t *testing.T) {
	u, rc, err := experiments.PlanSurvey("ip", experiments.SurveyConfig{Pairs: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := &survey.MemorySink{}
	rc.Sinks = []survey.Sink{mem}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	a := atlas.New(atlas.Options{})
	replay := func() {
		for _, rec := range mem.Records {
			if err := a.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay()
	perRecord := testing.AllocsPerRun(20, replay) / float64(len(mem.Records))
	t.Logf("%d records: %.3f allocs/record", len(mem.Records), perRecord)
	const bound = 3.5
	if perRecord > bound {
		t.Errorf("AddRecord replay: %.3f allocs/record, pinned at most %v", perRecord, bound)
	}
}
