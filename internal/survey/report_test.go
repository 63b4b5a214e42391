package survey

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mmlpt/internal/core"
	"mmlpt/internal/mda"
)

func runSmallIPSurvey(t testing.TB, pairs int, seed uint64) *Result {
	t.Helper()
	u := Generate(GenConfig{Seed: seed, Pairs: pairs})
	res, err := Run(u, RunConfig{Algo: AlgoMDA, Retries: 1, Trace: mda.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReportWeightings(t *testing.T) {
	t.Parallel()
	res := runSmallIPSurvey(t, 250, 91)
	m := res.diamonds(Measured)
	d := res.diamonds(Distinct)
	if len(m) != len(res.Measured) || len(d) != len(res.Distinct) {
		t.Fatalf("weighting sizes: %d/%d vs %d/%d", len(m), len(res.Measured), len(d), len(res.Distinct))
	}
	// Distinct output must be deterministic (sorted by key).
	d2 := res.diamonds(Distinct)
	for i := range d {
		if d[i].Key != d2[i].Key {
			t.Fatal("distinct ordering unstable")
		}
	}
}

func TestReportDistributionsWellFormed(t *testing.T) {
	t.Parallel()
	res := runSmallIPSurvey(t, 250, 92)
	for _, w := range []Weighting{Measured, Distinct} {
		h := res.WidthAsymmetryDist(w)
		var total float64
		for _, k := range h.Keys() {
			total += h.Portion(k)
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%v asymmetry portions sum to %v", w, total)
		}
		lh := res.LengthDist(w)
		for _, k := range lh.Keys() {
			if k < 2 {
				t.Fatalf("%v: diamond of length %d (must be >= 2)", w, k)
			}
		}
		wh := res.WidthDist(w)
		for _, k := range wh.Keys() {
			if k < 2 {
				t.Fatalf("%v: diamond of width %d (must be >= 2)", w, k)
			}
		}
		j := res.JointLengthWidth(w)
		if j.Total != len(res.diamonds(w)) {
			t.Fatalf("%v joint total %d vs %d diamonds", w, j.Total, len(res.diamonds(w)))
		}
		cdf := res.MeshedRatioCDF(w)
		if cdf.N() > 0 && (cdf.Min() <= 0 || cdf.Max() > 1) {
			t.Fatalf("%v meshed ratio out of (0,1]: %v..%v", w, cdf.Min(), cdf.Max())
		}
		miss := res.MeshMissCDF(w)
		if miss.N() > 0 && (miss.Min() < 0 || miss.Max() > 1) {
			t.Fatalf("%v miss prob out of range", w)
		}
	}
}

func TestSummaryMentionsCounts(t *testing.T) {
	t.Parallel()
	res := runSmallIPSurvey(t, 150, 93)
	s := res.Summary()
	for _, want := range []string{"traces:", "measured", "distinct", "len2", "meshed"} {
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
	u := Generate(GenConfig{Seed: 94, Pairs: 120})
	res, err := Run(u, RunConfig{
		Algo: AlgoMultilevel, Retries: 1, OnlyLB: true,
		Rounds: 3, Trace: mda.Config{Seed: 94},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := RouterView(res)
	if len(recs) == 0 {
		t.Fatal("no router records")
	}
	// Table 3 fractions must sum to 1 over the observed effects.
	t3 := Table3(recs)
	var sum float64
	for _, v := range t3 {
		sum += v
	}
	if len(t3) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("Table 3 fractions sum to %v: %v", sum, t3)
	}
	// Router-level width never exceeds IP-level width per diamond.
	for _, r := range recs {
		for i := range r.WidthBefore {
			if r.WidthAfter[i] > r.WidthBefore[i] {
				t.Fatalf("alias resolution increased width: %d -> %d",
					r.WidthBefore[i], r.WidthAfter[i])
			}
		}
	}
	distinct, aggregated := RouterSizeCDFs(recs)
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
	before, after := WidthBeforeAfter(recs)
	if before.Total != after.Total {
		t.Fatalf("before/after totals differ: %d vs %d", before.Total, after.Total)
	}
	j := JointWidthBeforeAfter(recs)
	for _, c := range j.Cells() {
		if c[1] >= c[0] {
			t.Fatalf("joint cell has after >= before: %v", c)
		}
	}
	// Table 3, Fig 13 and Fig 14 over this universe, recorded on commit
	// 4d89929 while they still looked each record's diamonds up in the
	// survey result (fmt prints maps in key order).
	const pinned = "fd6c31a5729b3ecd184bea5de13f9d10016e0d31083b64220d81e541d86cb684"
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%v", t3, *before, *after, *j)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinned {
		t.Errorf("router view digest %s, pinned %s", got, pinned)
	}
}

func TestEffectClassificationConsistency(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multilevel survey over 150 pairs is slow")
	}
	// EffectOnePath diamonds must have router-level max width 1 in span;
	// EffectNoChange must have identical widths.
	u := Generate(GenConfig{Seed: 95, Pairs: 150})
	res, err := Run(u, RunConfig{
		Algo: AlgoMultilevel, Retries: 1, OnlyLB: true,
		Rounds: 3, Trace: mda.Config{Seed: 95},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.ML == nil {
			continue
		}
		router := o.ML.RouterGraph
		for _, d := range o.Graph.Diamonds() {
			effect := core.ClassifyDiamond(d, router)
			wAfter := routerSpanMaxWidth(router, d)
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
