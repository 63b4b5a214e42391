package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Ground-truth evaluation records.
//
// An EvalRecord scores one (scenario, seed) instance of the evaluation
// harness (internal/groundtruth): the MDA and the MDA-Lite are run over
// the same generated network, an atlas-prior-seeded MDA-Lite and an
// unseeded one re-trace it, and each discovered topology is diffed
// against the generator's known ground truth. Records are byte-stable
// JSONL — encoding, decoding and re-encoding yields identical bytes, and
// a run's record stream is identical for every worker count — so a
// committed file of them can serve as a golden baseline that CI diffs
// against within tolerances (cmd/eval -golden).

// AlgoEval is the scored outcome of one algorithm over one scenario
// instance (all pairs of the instance aggregated).
type AlgoEval struct {
	Algo string `json:"algo"`
	// Probes is the total packets sent across the instance's pairs,
	// retries and node-control probes included.
	Probes uint64 `json:"probes"`
	// Reached counts pairs whose trace reached the destination.
	Reached int `json:"reached"`
	// Switched counts MDA-Lite traces that switched to the full MDA.
	Switched int `json:"switched"`
	// Recall: the fraction of ground-truth vertices/edges/diamonds the
	// algorithm discovered (stars excluded; see topo.Diff).
	VertexRecall  float64 `json:"vertex_recall"`
	EdgeRecall    float64 `json:"edge_recall"`
	DiamondRecall float64 `json:"diamond_recall"`
	// Precision: the fraction of discovered vertices/edges that exist in
	// the ground truth.
	VertexPrecision float64 `json:"vertex_precision"`
	EdgePrecision   float64 `json:"edge_precision"`
	// FalseVertices/FalseEdges are the absolute discovery-side
	// mismatches behind the precision figures ("false links").
	FalseVertices int `json:"false_vertices"`
	FalseEdges    int `json:"false_edges"`
	// PriorHops counts hops confirmed from an atlas prior across the
	// instance's traces; PriorStale counts traces whose prior mismatched
	// the live route and fell back to full discovery. Zero (and omitted)
	// for unseeded algorithms, keeping pre-prior goldens byte-stable.
	PriorHops  int `json:"prior_hops,omitempty"`
	PriorStale int `json:"prior_stale,omitempty"`
}

// EvalRecord is one (scenario, seed) evaluation: MDA and MDA-Lite over
// identical ground truth, plus the paper's accuracy/cost headline
// numbers derived from the pair of runs.
type EvalRecord struct {
	Scenario string `json:"scenario"`
	// SeedIndex is the position in the seed sweep; Seed the derived seed
	// actually used.
	SeedIndex int    `json:"seed_index"`
	Seed      uint64 `json:"seed"`
	// Pairs is how many (source, destination) routes the instance holds.
	Pairs int `json:"pairs"`
	// FlowBased marks scenarios whose balancers are all flow-based, i.e.
	// the MDA's assumptions hold and the paper's accuracy claim applies.
	FlowBased bool `json:"flow_based"`

	MDA     AlgoEval `json:"mda"`
	MDALite AlgoEval `json:"mdalite"`

	// ProbeSavings is 1 - mdalite.Probes/mda.Probes: the fraction of the
	// full MDA's probe cost the MDA-Lite avoided.
	ProbeSavings float64 `json:"probe_savings"`
	// RelativeEdgeRecall is mdalite.EdgeRecall/mda.EdgeRecall (1 when
	// the MDA found nothing): the paper's "MDA-Lite recovers nearly the
	// same topology" metric.
	RelativeEdgeRecall float64 `json:"relative_edge_recall"`

	// Prior-seeded re-trace columns. The MDA-Lite column's traces build
	// an atlas snapshot; MDALitePrior re-traces the (possibly churned)
	// network seeded from it, and MDALiteRetrace is the unseeded re-trace
	// baseline over the same network.
	MDALitePrior   AlgoEval `json:"mdalite_prior"`
	MDALiteRetrace AlgoEval `json:"mdalite_retrace"`
	// PriorProbeSavings is 1 - mdalite_prior.Probes/mdalite_retrace.Probes:
	// the re-survey cost the prior avoided.
	PriorProbeSavings float64 `json:"prior_probe_savings,omitempty"`
	// PriorRelativeEdgeRecall is the prior-seeded re-trace's edge recall
	// relative to the unseeded re-trace baseline (1 when the baseline
	// found nothing).
	PriorRelativeEdgeRecall float64 `json:"prior_relative_edge_recall,omitempty"`
	// PriorStalePairs counts re-traced pairs whose prior was abandoned
	// (route churn between the passes, or an under-corroborated prior).
	PriorStalePairs int `json:"prior_stale_pairs,omitempty"`
}

// WriteJSONL appends the record as one JSON line (JSONLWriter
// compatible).
func (r *EvalRecord) WriteJSONL(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

// ReadEvalRecords decodes one record per line until EOF. A record is
// one '\n'-terminated line in the form WriteJSONL writes, so every
// record read re-encodes to the bytes it was read from. Any other line
// (blank, CRLF, split over lines, two records on one, an unknown or a
// missing field, no final '\n') is an error naming the record and why
// it was refused.
func ReadEvalRecords(r io.Reader) ([]*EvalRecord, error) {
	br := bufio.NewReader(r)
	var out []*EvalRecord
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		switch {
		case err == io.EOF && len(line) == 0:
			return out, nil
		case err == io.EOF:
			return nil, fmt.Errorf("traceio: eval record %d: no final newline", n)
		case err != nil:
			return nil, err
		}
		er := new(EvalRecord)
		line = line[:len(line)-1]
		if err := json.Unmarshal(line, er); err != nil {
			return nil, fmt.Errorf("traceio: eval record %d: %v", n, err)
		}
		if err := checkCanonical(line, er); err != nil {
			return nil, fmt.Errorf("traceio: eval record %d: %v", n, err)
		}
		out = append(out, er)
	}
}
