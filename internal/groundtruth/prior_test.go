package groundtruth

import (
	"testing"

	"mmlpt/internal/topo"
)

// Acceptance pin for the PR's headline claim: on re-trace scenarios the
// prior-seeded MDA-Lite spends ≥30% fewer probes than an unseeded
// re-survey at ≥0.95 mean relative edge recall — and under route churn
// the stale priors actually fall back, with recall preserved.
func TestPriorRetraceSavingsAndRecallPin(t *testing.T) {
	t.Parallel()
	recs, err := defaultRun()
	if err != nil {
		t.Fatal(err)
	}
	var priorProbes, retraceProbes uint64
	var relSum float64
	var n int
	churnStale := 0
	for _, r := range recs {
		priorProbes += r.MDALitePrior.Probes
		retraceProbes += r.MDALiteRetrace.Probes
		relSum += r.PriorRelativeEdgeRecall
		n++
		if r.Scenario == "retrace-churn" {
			churnStale += r.PriorStalePairs
			if r.PriorRelativeEdgeRecall < 0.95 {
				t.Errorf("retrace-churn[seed %d]: relative edge recall %.3f < 0.95 — fallback lost topology",
					r.SeedIndex, r.PriorRelativeEdgeRecall)
			}
		} else if r.PriorStalePairs > 0 && (r.Scenario == "flow-narrow" || r.Scenario == "flow-wide" || r.Scenario == "flow-long") {
			t.Errorf("%s[seed %d]: %d stale priors on an unchanged deterministic route",
				r.Scenario, r.SeedIndex, r.PriorStalePairs)
		}
	}
	if retraceProbes == 0 || n == 0 {
		t.Fatal("no prior re-trace data")
	}
	savings := 1 - float64(priorProbes)/float64(retraceProbes)
	if savings < 0.30 {
		t.Errorf("prior-seeded re-trace savings %.1f%% < 30%% (prior %d vs retrace %d probes)",
			100*savings, priorProbes, retraceProbes)
	}
	if mean := relSum / float64(n); mean < 0.95 {
		t.Errorf("mean relative edge recall %.3f < 0.95", mean)
	}
	if churnStale == 0 {
		t.Error("retrace-churn produced no stale priors; the fallback path went unexercised")
	}
}

// BuildRetrace determinism and churn semantics: equal seeds rebuild
// identical re-trace truth, churned pairs' truth differs from Build's,
// and un-churned pairs' truth is byte-identical to Build's.
func TestBuildRetraceChurn(t *testing.T) {
	t.Parallel()
	var sc Scenario
	for _, s := range Suite() {
		if s.Name == "retrace-churn" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("retrace-churn scenario missing from the suite")
	}
	base := sc.Build(77)
	a := sc.BuildRetrace(77)
	b := sc.BuildRetrace(77)
	churned := 0
	for i := range a.Pairs {
		if !topo.Equal(a.Pairs[i].Truth, b.Pairs[i].Truth) {
			t.Fatalf("pair %d: re-trace truth differs across identical builds", i)
		}
		if !topo.Equal(a.Pairs[i].Truth, base.Pairs[i].Truth) {
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("no pair churned at RetraceChurn=0.5 over 4 pairs (all seeds)")
	}
	if churned == len(a.Pairs) {
		t.Fatal("every pair churned; un-churned prior coverage went unexercised")
	}
}
