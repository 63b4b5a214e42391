package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/traceio"
)

// AccuracyCostRow aggregates one scenario's eval records across its seed
// sweep: the MDA-vs-MDA-Lite comparison of the paper (Sec 2.4), rebuilt
// from ground-truth evaluation output instead of per-topology anecdotes.
type AccuracyCostRow struct {
	Scenario  string
	Seeds     int
	FlowBased bool
	// Mean probes per instance.
	MDAProbes, LiteProbes float64
	// Savings is 1 - totalLiteProbes/totalMDAProbes.
	Savings float64
	// Mean edge recall vs ground truth.
	MDAEdgeRecall, LiteEdgeRecall float64
	// RelEdgeRecall is mean(lite edge recall / mda edge recall).
	RelEdgeRecall float64
	// Switched counts MDA-Lite traces that switched to the full MDA,
	// summed over the sweep.
	Switched int
}

// AccuracyCostTable folds eval records into one row per scenario, in
// first-appearance order (records arrive in deterministic scenario-major
// order, so this is the harness's scenario order).
func AccuracyCostTable(recs []*traceio.EvalRecord) []AccuracyCostRow {
	idx := make(map[string]int)
	var rows []AccuracyCostRow
	type totals struct {
		mdaProbes, liteProbes uint64
	}
	sums := make(map[string]*totals)
	for _, r := range recs {
		i, ok := idx[r.Scenario]
		if !ok {
			i = len(rows)
			idx[r.Scenario] = i
			rows = append(rows, AccuracyCostRow{Scenario: r.Scenario, FlowBased: r.FlowBased})
			sums[r.Scenario] = &totals{}
		}
		row := &rows[i]
		row.Seeds++
		row.MDAProbes += float64(r.MDA.Probes)
		row.LiteProbes += float64(r.MDALite.Probes)
		row.MDAEdgeRecall += r.MDA.EdgeRecall
		row.LiteEdgeRecall += r.MDALite.EdgeRecall
		row.RelEdgeRecall += r.RelativeEdgeRecall
		row.Switched += r.MDALite.Switched
		t := sums[r.Scenario]
		t.mdaProbes += r.MDA.Probes
		t.liteProbes += r.MDALite.Probes
	}
	for i := range rows {
		row := &rows[i]
		n := float64(row.Seeds)
		row.MDAProbes /= n
		row.LiteProbes /= n
		row.MDAEdgeRecall /= n
		row.LiteEdgeRecall /= n
		row.RelEdgeRecall /= n
		if t := sums[row.Scenario]; t.mdaProbes > 0 {
			row.Savings = 1 - float64(t.liteProbes)/float64(t.mdaProbes)
		}
	}
	return rows
}

// FormatAccuracyCostTable renders the table plus the paper's headline:
// over the flow-based scenarios, the MDA-Lite's edge recall relative to
// the full MDA and the aggregate probe savings.
func FormatAccuracyCostTable(rows []AccuracyCostRow) string {
	var b strings.Builder
	b.WriteString("# MDA vs MDA-Lite: accuracy and cost against ground truth\n")
	fmt.Fprintf(&b, "%-16s %6s  %10s %10s %8s  %8s %8s %8s  %8s\n",
		"scenario", "seeds", "mda-pkts", "lite-pkts", "savings",
		"mda-edge", "lite-edge", "rel-edge", "switched")
	var flowRel, flowSavingsNum, flowSavingsDen float64
	flowRows := 0
	for _, r := range rows {
		name := r.Scenario
		if r.FlowBased {
			flowRel += r.RelEdgeRecall
			// float64(…) forbids FMA fusion: same table on every GOARCH.
			flowSavingsNum += float64(r.LiteProbes * float64(r.Seeds))
			flowSavingsDen += float64(r.MDAProbes * float64(r.Seeds))
			flowRows++
		}
		fmt.Fprintf(&b, "%-16s %6d  %10.1f %10.1f %7.1f%%  %8.3f %8.3f %8.3f  %8d\n",
			name, r.Seeds, r.MDAProbes, r.LiteProbes, 100*r.Savings,
			r.MDAEdgeRecall, r.LiteEdgeRecall, r.RelEdgeRecall, r.Switched)
	}
	if flowRows > 0 && flowSavingsDen > 0 {
		fmt.Fprintf(&b, "# flow-based scenarios: mean relative edge recall %.3f (paper: ~1.0), probe savings %.1f%%\n",
			flowRel/float64(flowRows), 100*(1-flowSavingsNum/flowSavingsDen))
	}
	return b.String()
}

// PriorRetraceRow aggregates one scenario's prior-seeded re-trace
// columns across its seed sweep: the cost of a re-survey seeded from the
// cross-trace atlas against the unseeded re-trace baseline.
type PriorRetraceRow struct {
	Scenario string
	Seeds    int
	// Mean probes per instance for the unseeded re-trace baseline and the
	// prior-seeded re-trace.
	RetraceProbes, PriorProbes float64
	// Savings is 1 - totalPriorProbes/totalRetraceProbes.
	Savings float64
	// RelEdgeRecall is mean(prior edge recall / retrace edge recall).
	RelEdgeRecall float64
	// PriorHops totals hops confirmed from the prior; StalePairs totals
	// traces whose prior was abandoned (route churn).
	PriorHops, StalePairs int
}

// PriorRetraceTable folds the prior columns of eval records into one row
// per scenario.
func PriorRetraceTable(recs []*traceio.EvalRecord) []PriorRetraceRow {
	idx := make(map[string]int)
	var rows []PriorRetraceRow
	type totals struct {
		retraceProbes, priorProbes uint64
	}
	sums := make(map[string]*totals)
	for _, r := range recs {
		i, ok := idx[r.Scenario]
		if !ok {
			i = len(rows)
			idx[r.Scenario] = i
			rows = append(rows, PriorRetraceRow{Scenario: r.Scenario})
			sums[r.Scenario] = &totals{}
		}
		row := &rows[i]
		row.Seeds++
		row.RetraceProbes += float64(r.MDALiteRetrace.Probes)
		row.PriorProbes += float64(r.MDALitePrior.Probes)
		row.RelEdgeRecall += r.PriorRelativeEdgeRecall
		row.PriorHops += r.MDALitePrior.PriorHops
		row.StalePairs += r.PriorStalePairs
		t := sums[r.Scenario]
		t.retraceProbes += r.MDALiteRetrace.Probes
		t.priorProbes += r.MDALitePrior.Probes
	}
	for i := range rows {
		row := &rows[i]
		n := float64(row.Seeds)
		row.RetraceProbes /= n
		row.PriorProbes /= n
		row.RelEdgeRecall /= n
		if t := sums[row.Scenario]; t.retraceProbes > 0 {
			row.Savings = 1 - float64(t.priorProbes)/float64(t.retraceProbes)
		}
	}
	return rows
}

// FormatPriorRetraceTable renders the prior-seeded re-trace comparison
// plus its headline: aggregate probe savings and mean relative edge
// recall across the scenarios.
func FormatPriorRetraceTable(rows []PriorRetraceRow) string {
	var b strings.Builder
	b.WriteString("# Atlas-prior re-trace: prior-seeded MDA-Lite vs unseeded re-survey\n")
	fmt.Fprintf(&b, "%-16s %6s  %12s %11s %8s  %8s %10s %6s\n",
		"scenario", "seeds", "retrace-pkts", "prior-pkts", "savings",
		"rel-edge", "prior-hops", "stale")
	var relSum, num, den float64
	for _, r := range rows {
		relSum += r.RelEdgeRecall
		// float64(…) forbids FMA fusion: same table on every GOARCH.
		num += float64(r.PriorProbes * float64(r.Seeds))
		den += float64(r.RetraceProbes * float64(r.Seeds))
		fmt.Fprintf(&b, "%-16s %6d  %12.1f %11.1f %7.1f%%  %8.3f %10d %6d\n",
			r.Scenario, r.Seeds, r.RetraceProbes, r.PriorProbes, 100*r.Savings,
			r.RelEdgeRecall, r.PriorHops, r.StalePairs)
	}
	if den > 0 {
		fmt.Fprintf(&b, "# re-trace with priors: mean relative edge recall %.3f, probe savings %.1f%%\n",
			relSum/float64(len(rows)), 100*(1-num/den))
	}
	return b.String()
}
