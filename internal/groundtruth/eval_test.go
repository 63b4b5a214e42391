package groundtruth

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// testScenarios is a fast three-scenario subset exercising the uniform
// (no-switch) and switching regimes, plus mid-trace route churn for the
// re-trace passes (Build ignores churn, so the MDA and MDA-Lite columns
// see a plain third scenario).
func testScenarios() []Scenario {
	return []Scenario{
		{
			Name:      "t-uniform",
			Gen:       testGen(2, 3, 2, 3, true),
			Pairs:     2,
			FlowBased: true,
		},
		{
			Name:  "t-vary",
			Gen:   testGen(2, 4, 3, 4, false),
			Pairs: 2,
		},
		{
			Name:           "t-churn",
			Gen:            testGen(2, 3, 2, 3, true),
			Pairs:          3,
			FlowBased:      true,
			RetraceChurn:   0.6,
			RetraceChurnAt: 40, // mid-trace flap, not just a stale prior
		},
	}
}

func testGen(wmin, wmax, lmin, lmax int, uniform bool) (g fakeroute.GenSpec) {
	g.Diamonds = 2
	g.WidthMin, g.WidthMax = wmin, wmax
	g.LenMin, g.LenMax = lmin, lmax
	g.UniformWidth = uniform
	return g
}

// Determinism guard: the eval JSONL must be byte-identical for every
// worker count, mirroring the survey/atlas guards. Each instance builds
// an atlas snapshot, extracts priors through the serving layer, and
// re-traces a churned network (t-churn flips routes mid-trace), so any
// nondeterminism in generation, tracing, prior extraction, diffing or
// record encoding shows up here as a byte diff.
func TestEvalByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		var buf bytes.Buffer
		recs, err := Run(Config{
			Scenarios: testScenarios(), Seeds: 3, BaseSeed: 11, workers: workers,
			OnRecord: func(r *traceio.EvalRecord) error { return r.WriteJSONL(&buf) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(recs) != 9 {
			t.Fatalf("workers=%d: got %d records, want 9", workers, len(recs))
		}
		if ref == nil {
			ref = append([]byte(nil), buf.Bytes()...)
			if len(ref) == 0 {
				t.Fatal("reference run produced no bytes; the guard would be vacuous")
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("workers=%d: eval JSONL differs from workers=1 reference", workers)
		}
	}
}

// defaultRun is cmd/eval's default run, Run(Config{Seeds: 3, BaseSeed:
// 1}), made once and shared by the tests that read the committed suite.
var defaultRun = sync.OnceValues(func() ([]*traceio.EvalRecord, error) {
	return Run(Config{Seeds: 3, BaseSeed: 1})
})

// The golden gate: cmd/eval's default run matches the committed golden
// within the default tolerances, every column of every scenario.
func TestDefaultRunMatchesGolden(t *testing.T) {
	t.Parallel()
	recs, err := defaultRun()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := LoadGolden(filepath.Join("..", "..", "testdata", "eval_golden.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tol := Tolerances{Recall: DefaultRecallTolerance, Probes: DefaultProbesTolerance}
	for _, d := range CompareGolden(recs, golden, tol) {
		t.Error(d)
	}
}

// The golden compare must catch a deliberately weakened stopping rule:
// halving the MDA's stopping confidence slashes probe counts (and can
// cost recall), which is exactly the class of regression the CI
// eval-golden job exists to stop.
func TestGoldenCompareCatchesNerf(t *testing.T) {
	t.Parallel()
	scs := testScenarios()
	golden, err := Run(Config{Scenarios: scs, Seeds: 2, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if drifts := CompareGolden(golden, golden, Tolerances{}); len(drifts) != 0 {
		t.Fatalf("self-compare drifted: %v", drifts)
	}

	// Nerf: eps 0.05 → 0.5, i.e. a 50%-confidence stopping table.
	nerfed, err := Run(Config{Scenarios: scs, Seeds: 2, BaseSeed: 5, stop: mda.StoppingPoints(0.5, 128)})
	if err != nil {
		t.Fatal(err)
	}
	drifts := CompareGolden(nerfed, golden, Tolerances{})
	if len(drifts) == 0 {
		t.Fatal("halved stopping confidence produced no drift; the golden gate is vacuous")
	}
	probeDrift := false
	for _, d := range drifts {
		if d.Metric == "mda.probes" || d.Metric == "mdalite.probes" {
			probeDrift = true
		}
	}
	if !probeDrift {
		t.Errorf("nerf did not register as a probe-count drift: %v", drifts)
	}
}

// Missing records are drifts in both directions.
func TestGoldenCompareMissingRecords(t *testing.T) {
	t.Parallel()
	recs, err := Run(Config{Scenarios: testScenarios(), Seeds: 2, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if drifts := CompareGolden(recs[:len(recs)-1], recs, Tolerances{}); len(drifts) != 1 {
		t.Fatalf("dropped run record: got %d drifts, want 1", len(drifts))
	}
	if drifts := CompareGolden(recs, recs[:len(recs)-1], Tolerances{}); len(drifts) != 1 {
		t.Fatalf("dropped golden record: got %d drifts, want 1", len(drifts))
	}
}

// Acceptance pin for the paper's qualitative claim: on flow-based-LB
// scenarios the MDA-Lite recovers ≥95% of the full MDA's edge recall,
// and on the uniform (no-switch) scenarios it does so at materially
// fewer probes.
func TestMDALiteAccuracyCostOnFlowScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite evaluation sweep; skipped with -short")
	}
	t.Parallel()
	recs, err := defaultRun()
	if err != nil {
		t.Fatal(err)
	}
	var liteProbes, mdaProbes uint64
	for _, r := range recs {
		if !r.FlowBased {
			continue
		}
		if r.RelativeEdgeRecall < 0.95 {
			t.Errorf("%s[seed %d]: relative edge recall %.3f < 0.95", r.Scenario, r.SeedIndex, r.RelativeEdgeRecall)
		}
		switch r.Scenario {
		case "flow-narrow", "flow-wide", "flow-long":
			liteProbes += r.MDALite.Probes
			mdaProbes += r.MDA.Probes
			if r.MDALite.Switched != 0 {
				t.Errorf("%s[seed %d]: uniform scenario switched to MDA %d times", r.Scenario, r.SeedIndex, r.MDALite.Switched)
			}
		}
	}
	if mdaProbes == 0 {
		t.Fatal("no uniform flow scenarios in the suite")
	}
	savings := 1 - float64(liteProbes)/float64(mdaProbes)
	if savings < 0.20 {
		t.Errorf("uniform flow scenarios: probe savings %.1f%% < 20%%", 100*savings)
	}
}

// Scenario selection.
func TestSelect(t *testing.T) {
	t.Parallel()
	suite := Suite()
	all, err := Select(suite, "all")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("all: %v, %d scenarios", err, len(all))
	}
	flow, err := Select(suite, "flow-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(flow) == 0 {
		t.Fatal("flow-* matched nothing")
	}
	for _, sc := range flow {
		if sc.Name[:5] != "flow-" {
			t.Errorf("flow-* matched %s", sc.Name)
		}
	}
	two, err := Select(suite, "perdest,perpacket")
	if err != nil || len(two) != 2 {
		t.Fatalf("explicit pair: %v, %d scenarios", err, len(two))
	}
	if _, err := Select(suite, "nope"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	// Overlapping patterns must not duplicate scenarios.
	overlap, err := Select(suite, "flow-*,flow-wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(overlap) != len(flow) {
		t.Fatalf("overlap selection duplicated: %d vs %d", len(overlap), len(flow))
	}
}

// Same seed rebuilds identical ground truth: the property that lets each
// algorithm get its own fresh network.
func TestScenarioBuildDeterministic(t *testing.T) {
	t.Parallel()
	sc := Suite()[0]
	a := sc.Build(99)
	b := sc.Build(99)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("pair counts differ")
	}
	for i := range a.Pairs {
		if a.Pairs[i].Src != b.Pairs[i].Src || a.Pairs[i].Dst != b.Pairs[i].Dst {
			t.Fatalf("pair %d differs", i)
		}
		if !topo.Equal(a.Pairs[i].Truth, b.Pairs[i].Truth) {
			t.Fatalf("pair %d ground truth differs", i)
		}
	}
}
