package survey

import (
	"fmt"
	"strings"
	"testing"

	"mmlpt/internal/core"
	"mmlpt/internal/mda"
	"mmlpt/internal/pin"
)

// aggregate runs a survey with an aggregate sink after cfg's sinks and
// returns the fold next to Run's result.
func aggregate(t testing.TB, u *Universe, cfg RunConfig) (*RecordAggregate, *Result) {
	t.Helper()
	agg := NewAggregateSink()
	cfg.Sinks = append(cfg.Sinks, agg)
	res, err := Run(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return agg.Agg, res
}

func runSmallIPSurvey(t testing.TB, pairs int, seed uint64) *RecordAggregate {
	t.Helper()
	agg, _ := aggregate(t, Generate(GenConfig{Seed: seed, Pairs: pairs}),
		RunConfig{Algo: AlgoMDA, Retries: 1, Trace: mda.Config{Seed: seed}})
	return agg
}

func TestReportWeightings(t *testing.T) {
	t.Parallel()
	agg := runSmallIPSurvey(t, 250, 91)
	m := agg.diamonds(Measured)
	d := agg.diamonds(Distinct)
	if len(m) != len(agg.Measured) || len(d) != len(agg.Distinct) {
		t.Fatalf("weighting sizes: %d/%d vs %d/%d", len(m), len(agg.Measured), len(d), len(agg.Distinct))
	}
	// Distinct output must be deterministic (sorted by key).
	d2 := agg.diamonds(Distinct)
	for i := range d {
		if d[i].Div != d2[i].Div || d[i].Conv != d2[i].Conv {
			t.Fatal("distinct ordering unstable")
		}
	}
}

func TestReportDistributionsWellFormed(t *testing.T) {
	t.Parallel()
	agg := runSmallIPSurvey(t, 250, 92)
	for _, w := range []Weighting{Measured, Distinct} {
		h := agg.WidthAsymmetryDist(w)
		var total float64
		for _, k := range h.Keys() {
			total += h.Portion(k)
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%v asymmetry portions sum to %v", w, total)
		}
		lh := agg.LengthDist(w)
		for _, k := range lh.Keys() {
			if k < 2 {
				t.Fatalf("%v: diamond of length %d (must be >= 2)", w, k)
			}
		}
		wh := agg.WidthDist(w)
		for _, k := range wh.Keys() {
			if k < 2 {
				t.Fatalf("%v: diamond of width %d (must be >= 2)", w, k)
			}
		}
		j := agg.JointLengthWidth(w)
		if j.Total != len(agg.diamonds(w)) {
			t.Fatalf("%v joint total %d vs %d diamonds", w, j.Total, len(agg.diamonds(w)))
		}
		cdf := agg.MeshedRatioCDF(w)
		if cdf.N() > 0 && (cdf.Min() <= 0 || cdf.Max() > 1) {
			t.Fatalf("%v meshed ratio out of (0,1]: %v..%v", w, cdf.Min(), cdf.Max())
		}
		miss := agg.MeshMissCDF(w)
		if miss.N() > 0 && (miss.Min() < 0 || miss.Max() > 1) {
			t.Fatalf("%v miss prob out of range", w)
		}
	}
}

func TestSummaryMentionsCounts(t *testing.T) {
	t.Parallel()
	s := runSmallIPSurvey(t, 150, 93).Summary()
	for _, want := range []string{"traces:", "reached:", "measured", "distinct", "len2", "meshed", "probes:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRouterSurveyEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multilevel survey over 120 pairs is slow")
	}
	agg, _ := aggregate(t, Generate(GenConfig{Seed: 94, Pairs: 120}), RunConfig{
		Algo: AlgoMultilevel, Retries: 1, OnlyLB: true,
		Rounds: 3, Trace: mda.Config{Seed: 94},
	})
	if len(agg.routers) == 0 {
		t.Fatal("no router views")
	}
	// Table 3 fractions must sum to 1 over the observed effects.
	t3 := agg.Table3()
	var sum float64
	for _, v := range t3 {
		sum += v
	}
	if len(t3) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("Table 3 fractions sum to %v: %v", sum, t3)
	}
	// Router-level width never exceeds IP-level width per diamond.
	for _, rv := range agg.routers {
		for i := range rv.widthBefore {
			if rv.widthAfter[i] > rv.widthBefore[i] {
				t.Fatalf("alias resolution increased width: %d -> %d",
					rv.widthBefore[i], rv.widthAfter[i])
			}
		}
	}
	distinct, aggregated := agg.RouterSizeCDFs()
	if distinct.N() == 0 {
		t.Fatal("no router sizes")
	}
	if aggregated.N() > distinct.N() {
		t.Fatal("aggregation cannot increase the number of routers")
	}
	if distinct.Min() < 2 {
		t.Fatal("router sets must have at least 2 interfaces")
	}
	// Every aggregated size is >= the size of some constituent.
	if aggregated.N() > 0 && aggregated.Max() < distinct.Max() {
		t.Fatal("aggregated max below distinct max")
	}
	before, after := agg.WidthBeforeAfter()
	if before.Total != after.Total {
		t.Fatalf("before/after totals differ: %d vs %d", before.Total, after.Total)
	}
	j := agg.JointWidthBeforeAfter()
	for _, c := range j.Cells() {
		if c[1] >= c[0] {
			t.Fatalf("joint cell has after >= before: %v", c)
		}
	}
	// Table 3, Fig 13 and Fig 14 over this universe (fmt prints maps in
	// key order).
	pin.Check(t, "survey/router-views", fmt.Appendf(nil, "%v|%v|%v|%v", t3, *before, *after, *j))
}

func TestEffectClassificationConsistency(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multilevel survey over 150 pairs is slow")
	}
	// EffectOnePath diamonds must have router-level max width 1 in span;
	// EffectNoChange must have identical widths. And the aggregate's view,
	// derived from each record's graph and alias sets, must match the one
	// the live trace's router graph gives.
	agg, res := aggregate(t, Generate(GenConfig{Seed: 95, Pairs: 150}), RunConfig{
		Algo: AlgoMultilevel, Retries: 1, OnlyLB: true,
		Rounds: 3, Trace: mda.Config{Seed: 95},
	})
	if len(agg.routers) != len(res.Outcomes) {
		t.Fatalf("%d router views for %d traces", len(agg.routers), len(res.Outcomes))
	}
	for k, o := range res.Outcomes {
		router := o.ML.RouterGraph
		rv := agg.routers[k]
		diamonds := o.Graph.Diamonds()
		if len(rv.keys) != len(diamonds) {
			t.Fatalf("pair %d: %d diamonds in the record's router view, %d in the trace", o.PairIndex, len(rv.keys), len(diamonds))
		}
		for i, d := range diamonds {
			effect := core.ClassifyDiamond(d, router)
			wAfter := routerSpanMaxWidth(router, d)
			if rv.keys[i] != d.Key() || rv.effects[i] != effect || rv.widthBefore[i] != d.MaxWidth() || rv.widthAfter[i] != wAfter {
				t.Fatalf("pair %d diamond %d: the record's router view differs from the trace's", o.PairIndex, i)
			}
			switch effect {
			case core.EffectOnePath:
				if wAfter != 1 {
					t.Fatalf("one-path diamond has router width %d", wAfter)
				}
			case core.EffectNoChange:
				for h := d.DivHop; h <= d.ConvHop; h++ {
					if router.Width(h) != d.Graph().Width(h) {
						t.Fatal("no-change diamond has differing widths")
					}
				}
			}
		}
	}
}
