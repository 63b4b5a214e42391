package survey

import (
	"testing"

	"mmlpt/internal/topo"
)

func smallUniverse(t testing.TB, pairs int, seed uint64) *Universe {
	t.Helper()
	return Generate(GenConfig{Seed: seed, Pairs: pairs})
}

func TestGenerateUniverseShape(t *testing.T) {
	t.Parallel()
	u := smallUniverse(t, 300, 7)
	if len(u.Pairs) != 300 {
		t.Fatalf("pairs = %d", len(u.Pairs))
	}
	lb := 0
	for _, p := range u.Pairs {
		if p.HasLB {
			lb++
		}
	}
	frac := float64(lb) / float64(len(u.Pairs))
	if frac < 0.40 || frac > 0.65 {
		t.Fatalf("LB fraction %.2f outside calibration band", frac)
	}
	if len(u.Templates) < 24 {
		t.Fatalf("template library too small: %d", len(u.Templates))
	}
	// The giant cores must exist with their signature widths.
	if w := maxFragWidth(u.Templates[0].Frag); w != 48 {
		t.Fatalf("giant48 width %d", w)
	}
	if w := maxFragWidth(u.Templates[1].Frag); w != 56 {
		t.Fatalf("giant56 width %d", w)
	}
}

func maxFragWidth(g *topo.Graph) int {
	w := 0
	for h := 0; h < g.NumHops(); h++ {
		if n := g.Width(h); n > w {
			w = n
		}
	}
	return w
}

func TestRunMDALiteSurveySmall(t *testing.T) {
	t.Parallel()
	agg, res := aggregate(t, smallUniverse(t, 120, 11), RunConfig{Algo: AlgoMDALite, Retries: 1})
	if len(res.Outcomes) != 120 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	reached := 0
	for _, o := range res.Outcomes {
		if o.Reached {
			reached++
		}
	}
	if float64(reached) < 0.95*float64(len(res.Outcomes)) {
		t.Fatalf("only %d/%d traces reached the destination", reached, len(res.Outcomes))
	}
	if len(agg.Measured) == 0 || len(agg.Distinct) == 0 {
		t.Fatal("no diamonds surveyed")
	}
	if len(agg.Measured) < len(agg.Distinct) {
		t.Fatal("measured count below distinct count")
	}
}

func TestDistinctReuseAcrossPairs(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("400-pair universe is slow")
	}
	agg, _ := aggregate(t, smallUniverse(t, 400, 13), RunConfig{Algo: AlgoMDALite, Retries: 1})
	ratio := float64(len(agg.Measured)) / float64(len(agg.Distinct))
	if ratio < 1.5 {
		t.Fatalf("measured/distinct reuse ratio %.2f too low for a shared-core internet", ratio)
	}
}
