package experiments

import (
	"reflect"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/stats"
	"mmlpt/internal/survey"
)

// Acceptance: the aggregated router-size CDF computed from the atlas an
// AtlasSink built during the run equals the one the survey's record
// aggregate derives — the atlas is a faithful cross-trace aggregation,
// not a parallel approximation.
func TestAtlasRouterSizeCDFMatchesAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("router survey is slow; skipped with -short")
	}
	t.Parallel()
	u, rc, err := PlanSurvey("router", SurveyConfig{Pairs: 40, Seed: 11, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink, aggSink := survey.NewAtlasSink(atlas.Options{}), survey.NewAggregateSink()
	rc.Sinks = []survey.Sink{sink, aggSink}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	agg := aggSink.Agg
	if agg.Records == 0 {
		t.Fatal("survey produced no records; the comparison would be vacuous")
	}
	_, wantAgg := agg.RouterSizeCDFs()
	routers := sink.Atlas.Routers()
	samples := make([]float64, len(routers))
	for i, r := range routers {
		samples[i] = float64(len(r))
	}
	got := stats.NewCDF(samples)
	if got.N() == 0 {
		t.Fatal("atlas has no routers")
	}
	if !reflect.DeepEqual(got, wantAgg) {
		t.Fatalf("atlas aggregated CDF differs from the record aggregate's: n=%d vs n=%d", got.N(), wantAgg.N())
	}
}
