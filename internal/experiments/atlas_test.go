package experiments

import (
	"reflect"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/stats"
	"mmlpt/internal/survey"
)

// Acceptance: the aggregated router-size CDF computed from the atlas an
// AtlasSink built during the run equals the one survey.RouterSizeCDFs
// derives from the in-memory RouterView records — the atlas is a
// faithful cross-trace aggregation, not a parallel approximation.
func TestAtlasRouterSizeCDFMatchesRouterView(t *testing.T) {
	if testing.Short() {
		t.Skip("router survey is slow; skipped with -short")
	}
	t.Parallel()
	sink := survey.NewAtlasSink(atlas.Options{Shards: 8})
	cfg := SurveyConfig{Pairs: 40, Seed: 11, Rounds: 2, Sinks: []survey.Sink{sink}}
	res, recs, err := RouterSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 || len(recs) == 0 {
		t.Fatal("survey produced no router records; the comparison would be vacuous")
	}
	_, wantAgg := survey.RouterSizeCDFs(recs)
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
		t.Fatalf("atlas aggregated CDF differs from RouterView's: n=%d vs n=%d", got.N(), wantAgg.N())
	}
}
