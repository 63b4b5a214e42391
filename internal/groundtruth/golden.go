package groundtruth

import (
	"fmt"
	"os"

	"mmlpt/internal/traceio"
)

// Golden comparison.
//
// A golden file is a committed eval run (testdata/eval_golden.jsonl).
// The harness is fully deterministic, so a re-run on unchanged code
// reproduces the golden byte-for-byte; tolerances exist so a deliberate
// algorithm change with marginal metric drift can land by regenerating
// the golden, while an accidental accuracy or cost regression — lower
// recall, ballooning (or suspiciously collapsing) probe counts — fails
// TestDefaultRunMatchesGolden and CI's eval-golden job.

// Default tolerances, used by cmd/eval's flag defaults and CI.
const (
	DefaultRecallTolerance = 0.02
	DefaultProbesTolerance = 0.10
)

// Tolerances bound the allowed drift per metric family. Zero means
// exact match — the harness is fully deterministic, so demanding exact
// reproduction is legitimate; looseness must be asked for.
type Tolerances struct {
	// Recall is the absolute drift allowed on recall/precision/savings
	// ratios.
	Recall float64
	// Probes is the relative drift allowed on probe counts, either
	// direction: probes collapsing below the golden is as suspicious as
	// ballooning — it usually means a stopping rule got nerfed.
	Probes float64
}

// Drift is one metric that moved beyond tolerance relative to a golden
// record.
type Drift struct {
	Scenario  string
	SeedIndex int
	Metric    string
	Golden    float64
	Got       float64
}

func (d Drift) String() string {
	return fmt.Sprintf("DRIFT %s[seed %d] %s: golden %.4g, got %.4g",
		d.Scenario, d.SeedIndex, d.Metric, d.Golden, d.Got)
}

type recordKey struct {
	scenario string
	seedIdx  int
}

// CompareGolden diffs got against golden within tol. Records match by
// (scenario, seed index); a record present on only one side is itself a
// drift, so deleted scenarios or shortened seed sweeps cannot silently
// pass.
func CompareGolden(got, golden []*traceio.EvalRecord, tol Tolerances) []Drift {
	var drifts []Drift
	index := make(map[recordKey]*traceio.EvalRecord, len(got))
	for _, r := range got {
		index[recordKey{r.Scenario, r.SeedIndex}] = r
	}
	matched := make(map[recordKey]bool, len(golden))
	for _, g := range golden {
		k := recordKey{g.Scenario, g.SeedIndex}
		matched[k] = true
		r := index[k]
		if r == nil {
			drifts = append(drifts, Drift{Scenario: g.Scenario, SeedIndex: g.SeedIndex, Metric: "record missing from run"})
			continue
		}
		drifts = append(drifts, compareRecord(r, g, tol)...)
	}
	for _, r := range got {
		if !matched[recordKey{r.Scenario, r.SeedIndex}] {
			drifts = append(drifts, Drift{Scenario: r.Scenario, SeedIndex: r.SeedIndex, Metric: "record missing from golden"})
		}
	}
	return drifts
}

func compareRecord(got, golden *traceio.EvalRecord, tol Tolerances) []Drift {
	var drifts []Drift
	note := func(metric string, g, v float64) {
		drifts = append(drifts, Drift{
			Scenario: got.Scenario, SeedIndex: got.SeedIndex,
			Metric: metric, Golden: g, Got: v,
		})
	}
	absDrift := func(metric string, g, v float64) {
		if v-g > tol.Recall || g-v > tol.Recall {
			note(metric, g, v)
		}
	}
	relDrift := func(metric string, g, v float64) {
		if g == 0 {
			if v != 0 {
				note(metric, g, v)
			}
			return
		}
		if r := v/g - 1; r > tol.Probes || -r > tol.Probes {
			note(metric, g, v)
		}
	}
	exact := func(metric string, g, v float64) {
		if g != v {
			note(metric, g, v)
		}
	}

	compareAlgo := func(name string, gold, v traceio.AlgoEval) {
		relDrift(name+".probes", float64(gold.Probes), float64(v.Probes))
		absDrift(name+".vertex_recall", gold.VertexRecall, v.VertexRecall)
		absDrift(name+".edge_recall", gold.EdgeRecall, v.EdgeRecall)
		absDrift(name+".diamond_recall", gold.DiamondRecall, v.DiamondRecall)
		absDrift(name+".vertex_precision", gold.VertexPrecision, v.VertexPrecision)
		absDrift(name+".edge_precision", gold.EdgePrecision, v.EdgePrecision)
		exact(name+".reached", float64(gold.Reached), float64(v.Reached))
	}
	compareAlgo("mda", golden.MDA, got.MDA)
	compareAlgo("mdalite", golden.MDALite, got.MDALite)
	absDrift("probe_savings", golden.ProbeSavings, got.ProbeSavings)
	absDrift("relative_edge_recall", golden.RelativeEdgeRecall, got.RelativeEdgeRecall)

	compareAlgo("mdalite_prior", golden.MDALitePrior, got.MDALitePrior)
	compareAlgo("mdalite_retrace", golden.MDALiteRetrace, got.MDALiteRetrace)
	absDrift("prior_probe_savings", golden.PriorProbeSavings, got.PriorProbeSavings)
	absDrift("prior_relative_edge_recall", golden.PriorRelativeEdgeRecall, got.PriorRelativeEdgeRecall)
	exact("prior_stale_pairs", float64(golden.PriorStalePairs), float64(got.PriorStalePairs))
	return drifts
}

// LoadGolden reads a golden JSONL file, keeping only records whose
// scenario is in the selected set (nil keeps all): a partial scenario
// selection compares against the matching slice of the golden.
func LoadGolden(path string, selected []Scenario) ([]*traceio.EvalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := traceio.ReadEvalRecords(f)
	if err != nil {
		return nil, fmt.Errorf("groundtruth: %s: %w", path, err)
	}
	if selected == nil {
		return recs, nil
	}
	keep := make(map[string]bool, len(selected))
	for _, sc := range selected {
		keep[sc.Name] = true
	}
	var out []*traceio.EvalRecord
	for _, r := range recs {
		if keep[r.Scenario] {
			out = append(out, r)
		}
	}
	return out, nil
}
