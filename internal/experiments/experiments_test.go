package experiments

import (
	"testing"

	"mmlpt/internal/survey"
)

func TestFig1Accounting(t *testing.T) {
	t.Parallel()
	rows := Fig1(Fig1Config{Runs: 8, Seed: 3})
	byKey := map[string]Fig1Row{}
	for _, r := range rows {
		byKey[r.Topology+"/"+r.Algorithm] = r
	}
	mdaU := byKey["unmeshed/mda"]
	liteU := byKey["unmeshed/mda-lite"]
	if mdaU.MeanProbes < float64(mdaU.Floor) {
		t.Fatalf("MDA unmeshed mean %.1f below analytic floor %d", mdaU.MeanProbes, mdaU.Floor)
	}
	if liteU.MeanProbes >= mdaU.MeanProbes {
		t.Fatalf("MDA-Lite (%.1f) not cheaper than MDA (%.1f) on the unmeshed diamond",
			liteU.MeanProbes, mdaU.MeanProbes)
	}
	mdaM := byKey["meshed/mda"]
	if mdaM.MeanProbes <= mdaU.MeanProbes {
		t.Fatalf("meshed diamond (%.1f) not costlier than unmeshed (%.1f) for the MDA",
			mdaM.MeanProbes, mdaU.MeanProbes)
	}
	for _, r := range rows {
		if r.FullV < 0.99 {
			t.Errorf("%s/%s vertex coverage %.3f", r.Topology, r.Algorithm, r.FullV)
		}
	}
}

func TestSec3ValidationSmall(t *testing.T) {
	t.Parallel()
	r := Sec3Validation(Sec3Config{Samples: 10, RunsPerSample: 200, Seed: 9})
	if r.Predicted != 0.03125 {
		t.Fatalf("predicted %.5f, want 0.03125", r.Predicted)
	}
	// With 2000 runs the standard error is about 0.004; allow 3 sigma.
	if diff := r.Measured - r.Predicted; diff > 0.015 || diff < -0.015 {
		t.Fatalf("measured %.5f too far from predicted %.5f", r.Measured, r.Predicted)
	}
}

func TestFig3Shapes(t *testing.T) {
	t.Parallel()
	curves := Fig3(Fig3Config{Runs: 6, Seed: 21})
	byKey := map[string]Fig3Curve{}
	for _, c := range curves {
		byKey[c.Topology+"/"+c.Algorithm] = c
	}
	// On uniform unmeshed topologies the MDA-Lite must not switch and
	// must use significantly fewer packets.
	for _, topoName := range []string{"max-length-2", "symmetric"} {
		lite := byKey[topoName+"/mda-lite"]
		if lite.SwitchRate > 0 {
			t.Errorf("%s: unexpected switches (rate %.2f)", topoName, lite.SwitchRate)
		}
		if lite.MeanFrac > 0.9 {
			t.Errorf("%s: MDA-Lite used %.2f of MDA packets, expected savings", topoName, lite.MeanFrac)
		}
		final := lite.Points[len(lite.Points)-1]
		if final.V < 0.99 {
			t.Errorf("%s: MDA-Lite final vertex fraction %.3f", topoName, final.V)
		}
	}
	// On meshed/asymmetric topologies the switch must usually fire and
	// economy is lost.
	for _, topoName := range []string{"asymmetric", "meshed"} {
		lite := byKey[topoName+"/mda-lite"]
		if lite.SwitchRate < 0.8 {
			t.Errorf("%s: switch rate %.2f, expected near-certain detection", topoName, lite.SwitchRate)
		}
		if lite.MeanFrac < 1.0 {
			t.Errorf("%s: MDA-Lite frac %.2f < 1, switch should cost extra", topoName, lite.MeanFrac)
		}
	}
}

func TestFig4Table1Shape(t *testing.T) {
	t.Parallel()
	r := Fig4(Fig4Config{Pairs: 60, Seed: 5})
	if r.Pairs < 40 {
		t.Fatalf("only %d diamond-bearing pairs evaluated", r.Pairs)
	}
	// Second MDA and both MDA-Lite variants must discover essentially the
	// same aggregate topology as the first MDA.
	for _, v := range []Fig4Variant{VariantMDA2, VariantLitePhi2, VariantLitePhi4} {
		if r.Table1[v][0] < 0.97 || r.Table1[v][0] > 1.03 {
			t.Errorf("%s aggregate vertex ratio %.3f", v, r.Table1[v][0])
		}
		if r.Table1[v][1] < 0.95 || r.Table1[v][1] > 1.05 {
			t.Errorf("%s aggregate edge ratio %.3f", v, r.Table1[v][1])
		}
	}
	// The MDA-Lite must cut packets notably; the second MDA must not.
	if r.Table1[VariantLitePhi2][2] > 0.9 {
		t.Errorf("MDA-Lite phi=2 aggregate packet ratio %.3f, expected savings", r.Table1[VariantLitePhi2][2])
	}
	if r.Table1[VariantMDA2][2] < 0.9 || r.Table1[VariantMDA2][2] > 1.1 {
		t.Errorf("second MDA packet ratio %.3f, expected ~1", r.Table1[VariantMDA2][2])
	}
	// Single flow: tiny packet budget, much less topology.
	if r.Table1[VariantSingleFlow][2] > 0.25 {
		t.Errorf("single-flow packet ratio %.3f, expected a few percent", r.Table1[VariantSingleFlow][2])
	}
	if r.Table1[VariantSingleFlow][0] > 0.85 {
		t.Errorf("single-flow vertex ratio %.3f, expected large loss", r.Table1[VariantSingleFlow][0])
	}
	if r.Table1[VariantSingleFlow][1] >= r.Table1[VariantSingleFlow][0] {
		t.Errorf("single-flow edge ratio %.3f not below vertex ratio %.3f",
			r.Table1[VariantSingleFlow][1], r.Table1[VariantSingleFlow][0])
	}
}

func TestFig5Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multilevel rounds over 25 pairs are slow")
	}
	rows := Fig5(Fig5Config{Pairs: 25, Seed: 77, rounds: 5})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	r0, r1, last := rows[0], rows[1], rows[len(rows)-1]
	if r0.ProbeRatio != 1 {
		t.Fatalf("round 0 probe ratio %.3f, want 1 (free)", r0.ProbeRatio)
	}
	if last.Precision < 0.999 || last.Recall < 0.999 {
		t.Fatalf("final round self-reference P=%.3f R=%.3f", last.Precision, last.Recall)
	}
	if r1.Recall < r0.Recall-0.05 {
		t.Errorf("recall fell after first probing round: %.3f -> %.3f", r0.Recall, r1.Recall)
	}
	if last.ProbeRatio <= r1.ProbeRatio {
		t.Errorf("probe ratio must grow: r1=%.3f last=%.3f", r1.ProbeRatio, last.ProbeRatio)
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multilevel rounds over 30 pairs are slow")
	}
	r := Table2(Table2Config{Pairs: 30, Seed: 15, rounds: 4})
	if r.Sets == 0 {
		t.Fatal("no router sets in the union")
	}
	var sum float64
	for i := range r.Cell {
		for j := range r.Cell[i] {
			sum += r.Cell[i][j]
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("cells sum to %.3f, want 1", sum)
	}
	// Both-accept must be the dominant cell.
	if r.Cell[0][0] < 0.2 {
		t.Errorf("both-accept cell %.3f, expected dominant", r.Cell[0][0])
	}
}

func TestIPSurveySmallShapes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("600-pair universe is slow")
	}
	// Population fractions are popularity-weighted and need a few hundred
	// distinct diamonds before they stabilize; 600 pairs keeps the bands
	// meaningful without slowing the suite.
	agg, err := IPSurvey(SurveyConfig{Pairs: 600, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Measured) == 0 {
		t.Fatal("no diamonds")
	}
	h := agg.WidthAsymmetryDist(survey.Measured)
	if p0 := h.Portion(0); p0 < 0.70 {
		t.Errorf("zero-asymmetry portion %.2f, calibration target ~0.89", p0)
	}
	lh := agg.LengthDist(survey.Measured)
	if p2 := lh.Portion(2); p2 < 0.30 || p2 > 0.70 {
		t.Errorf("len-2 portion %.2f, calibration target ~0.48", p2)
	}
}
