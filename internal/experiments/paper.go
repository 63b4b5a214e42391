package experiments

import (
	"fmt"

	"mmlpt/internal/survey"
)

// Artifact is one table or figure of the paper's evaluation. A Sec 5
// artifact renders the aggregate of the survey named by Level; every
// other artifact runs its own experiment at a workload multiplier.
type Artifact struct {
	// Fig and Table are the paper's numbers, zero where the artifact has
	// none (the Sec 3 validation has neither).
	Fig, Table int
	Level      string // "ip" or "router" for a Sec 5 artifact
	Format     func(*survey.RecordAggregate) string
	Run        func(scale int, seed uint64) string
}

// Artifacts lists the evaluation in the paper's order: the order
// cmd/paperfig prints in, and the one list cmd/survey renders a survey
// level's figures and tables from.
var Artifacts = []Artifact{
	{Fig: 1, Run: func(s int, seed uint64) string {
		return FormatFig1(Fig1(Fig1Config{Runs: 30 * s, Seed: seed}))
	}},
	{Fig: 2, Level: "ip", Format: FormatFig2},
	{Fig: 3, Run: func(_ int, seed uint64) string {
		return FormatFig3(Fig3(Fig3Config{Runs: 30, Seed: seed}))
	}},
	{Fig: 4, Table: 1, Run: func(s int, seed uint64) string {
		r := Fig4(Fig4Config{Pairs: 200 * s, Seed: seed})
		any2, s402 := r.SavingsShare(VariantLitePhi2)
		return FormatFig4(r) + fmt.Sprintf("\n# MDA-Lite phi=2: packet savings on %.0f%% of pairs; >=40%% savings on %.0f%% (paper: 89%% and 30%%)\n",
			100*any2, 100*s402)
	}},
	{Run: func(s int, seed uint64) string {
		return FormatSec3(Sec3Validation(Sec3Config{Samples: 10 * s, RunsPerSample: 200 * s, Seed: seed}))
	}},
	{Fig: 5, Run: func(s int, seed uint64) string {
		return FormatFig5(Fig5(Fig5Config{Pairs: 60 * s, Seed: seed}))
	}},
	{Table: 2, Run: func(s int, seed uint64) string {
		return FormatTable2(Table2(Table2Config{Pairs: 40 * s, Seed: seed}))
	}},
	{Fig: 7, Level: "ip", Format: FormatFig7},
	{Fig: 8, Level: "ip", Format: FormatFig8},
	{Fig: 9, Level: "ip", Format: FormatFig9},
	{Fig: 10, Level: "ip", Format: FormatFig10},
	{Fig: 11, Level: "ip", Format: FormatFig11},
	{Fig: 12, Level: "router", Format: FormatFig12},
	{Table: 3, Level: "router", Format: FormatTable3},
	{Fig: 13, Level: "router", Format: FormatFig13},
	{Fig: 14, Level: "router", Format: FormatFig14},
}
