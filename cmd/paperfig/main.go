// Command paperfig regenerates every table and figure of the paper's
// evaluation from the Go reproduction, printing the same rows and series
// the paper reports.
//
// Usage:
//
//	paperfig -all                 # everything at the default scale
//	paperfig -fig 4 -scale 5      # Fig 4 at 5x the default workload
//	paperfig -table 2
//
// Scale 1 is sized to finish in seconds; the paper's own scale (10,000
// measurement pairs, 50×1000 validation runs) is roughly -scale 50 for
// the measurement experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
)

func main() {
	var (
		fig   = flag.Int("fig", 0, "figure number to regenerate (1-5, 7-14)")
		table = flag.Int("table", 0, "table number to regenerate (1-3)")
		all   = flag.Bool("all", false, "regenerate everything")
		scale = flag.Int("scale", 1, "workload multiplier")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if !*all && *fig == 0 && *table == 0 {
		flag.Usage()
		os.Exit(2)
	}
	s := *scale
	if s < 1 {
		s = 1
	}

	ipSurvey := sync.OnceValue(func() *survey.Result {
		res, err := experiments.IPSurvey(experiments.SurveyConfig{Pairs: 400 * s, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return res
	})
	routerSurvey := sync.OnceValue(func() []survey.RouterRecord {
		_, recs, err := experiments.RouterSurvey(experiments.SurveyConfig{
			Pairs: 120 * s, Seed: *seed, Rounds: 10,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return recs
	})

	want := func(f, t int) bool {
		return *all || (*fig != 0 && *fig == f) || (*table != 0 && *table == t)
	}

	if want(1, 0) {
		fmt.Println(experiments.FormatFig1(experiments.Fig1(experiments.Fig1Config{
			Runs: 30 * s, Seed: *seed,
		})))
	}
	if want(2, 0) {
		fmt.Println(experiments.FormatFig2(ipSurvey()))
	}
	if want(3, 0) {
		fmt.Println(experiments.FormatFig3(experiments.Fig3(experiments.Fig3Config{
			Runs: 30, Seed: *seed,
		})))
	}
	if want(4, 1) {
		r := experiments.Fig4(experiments.Fig4Config{Pairs: 200 * s, Seed: *seed})
		fmt.Println(experiments.FormatFig4(r))
		any2, s402 := r.SavingsShare(experiments.VariantLitePhi2)
		fmt.Printf("# MDA-Lite phi=2: packet savings on %.0f%% of pairs; >=40%% savings on %.0f%% (paper: 89%% and 30%%)\n\n",
			100*any2, 100*s402)
	}
	if want(0, 0) && *all { // Sec 3 validation is part of -all
		fmt.Println(experiments.FormatSec3(experiments.Sec3Validation(experiments.Sec3Config{
			Samples: 10 * s, RunsPerSample: 200 * s, Seed: *seed,
		})))
	}
	if want(5, 0) {
		fmt.Println(experiments.FormatFig5(experiments.Fig5(experiments.Fig5Config{
			Pairs: 60 * s, Seed: *seed,
		})))
	}
	if want(0, 2) {
		fmt.Println(experiments.FormatTable2(experiments.Table2(experiments.Table2Config{
			Pairs: 40 * s, Seed: *seed,
		})))
	}
	if want(7, 0) {
		fmt.Println(experiments.FormatFig7(ipSurvey()))
	}
	if want(8, 0) {
		fmt.Println(experiments.FormatFig8(ipSurvey()))
	}
	if want(9, 0) {
		fmt.Println(experiments.FormatFig9(ipSurvey()))
	}
	if want(10, 0) {
		fmt.Println(experiments.FormatFig10(ipSurvey()))
	}
	if want(11, 0) {
		fmt.Println(experiments.FormatFig11(ipSurvey()))
	}
	if want(12, 0) {
		fmt.Println(experiments.FormatFig12(routerSurvey()))
	}
	if want(0, 3) {
		fmt.Println(experiments.FormatTable3(routerSurvey()))
	}
	if want(13, 0) {
		fmt.Println(experiments.FormatFig13(routerSurvey()))
	}
	if want(14, 0) {
		fmt.Println(experiments.FormatFig14(routerSurvey()))
	}
}
