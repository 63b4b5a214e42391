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
	s := max(*scale, 1)

	// The Sec 5 artifacts share one survey per level, run on first use.
	surveys := map[string]func() *survey.RecordAggregate{
		"ip": sync.OnceValue(func() *survey.RecordAggregate {
			return mustSurvey(experiments.IPSurvey(experiments.SurveyConfig{Pairs: 400 * s, Seed: *seed}))
		}),
		"router": sync.OnceValue(func() *survey.RecordAggregate {
			return mustSurvey(experiments.RouterSurvey(experiments.SurveyConfig{Pairs: 120 * s, Seed: *seed, Rounds: 10}))
		}),
	}
	for _, a := range experiments.Artifacts {
		// -all adds the Sec 3 validation, which has no number.
		if !*all && (*fig == 0 || *fig != a.Fig) && (*table == 0 || *table != a.Table) {
			continue
		}
		if a.Level != "" {
			fmt.Println(a.Format(surveys[a.Level]()))
		} else {
			fmt.Println(a.Run(s, *seed))
		}
	}
}

func mustSurvey(agg *survey.RecordAggregate, err error) *survey.RecordAggregate {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return agg
}
