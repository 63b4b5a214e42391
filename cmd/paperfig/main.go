// Command paperfig regenerates every table and figure of the paper's
// evaluation from the Go reproduction, printing the same rows and series
// the paper reports.
//
// Usage:
//
//	paperfig -all                 # everything at the default scale
//	paperfig -fig 4 -scale 5      # Fig 4 at 5x the default workload
//	paperfig -table 2
//	paperfig -sec3 -scale 5       # the Sec 3 Fakeroute validation, 50×1000 runs
//
// Scale 1 is sized to finish in seconds; the paper's own scale is
// -scale 5 for the Sec 3 validation (50×1000 runs) and roughly -scale 50
// for the measurement experiments (10,000 pairs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"mmlpt/internal/experiments"
	"mmlpt/internal/survey"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected; it returns
// the exit code: 2 for usage errors, 1 for runtime errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.Int("fig", 0, "figure number to regenerate (1-5, 7-14)")
		table = fs.Int("table", 0, "table number to regenerate (1-3)")
		sec3  = fs.Bool("sec3", false, "run the Sec 3 Fakeroute validation (-scale 5 is the paper's 50x1000 runs)")
		all   = fs.Bool("all", false, "regenerate everything")
		scale = fs.Int("scale", 1, "workload multiplier, at least 1")
		seed  = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	figs, tables := map[int]bool{}, map[int]bool{}
	for _, a := range experiments.Artifacts {
		figs[a.Fig], tables[a.Table] = true, true
	}
	usage := ""
	switch {
	case fs.NArg() > 0:
		usage = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case !*all && !*sec3 && *fig == 0 && *table == 0:
		fs.Usage()
		return 2
	case *fig != 0 && !figs[*fig]:
		usage = fmt.Sprintf("-fig %d: the paper's evaluation has no such figure", *fig)
	case *table != 0 && !tables[*table]:
		usage = fmt.Sprintf("-table %d: the paper's evaluation has no such table", *table)
	case *scale < 1:
		usage = fmt.Sprintf("-scale %d: want at least 1", *scale)
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	s := *scale

	// The Sec 5 artifacts share one survey per level, run on first use.
	surveys := map[string]func() (*survey.RecordAggregate, error){
		"ip": sync.OnceValues(func() (*survey.RecordAggregate, error) {
			return experiments.IPSurvey(experiments.SurveyConfig{Pairs: 400 * s, Seed: *seed})
		}),
		"router": sync.OnceValues(func() (*survey.RecordAggregate, error) {
			return experiments.RouterSurvey(experiments.SurveyConfig{Pairs: 120 * s, Seed: *seed, Rounds: 10})
		}),
	}
	for _, a := range experiments.Artifacts {
		// The Sec 3 validation is the one artifact with no number.
		selected := *all || (*fig != 0 && *fig == a.Fig) || (*table != 0 && *table == a.Table) ||
			(*sec3 && a.Fig == 0 && a.Table == 0)
		if !selected {
			continue
		}
		if a.Level == "" {
			fmt.Fprintln(stdout, a.Run(s, *seed))
			continue
		}
		agg, err := surveys[a.Level]()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, a.Format(agg))
	}
	return 0
}
