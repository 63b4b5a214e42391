// Command eval runs the ground-truth evaluation suite: each scenario
// generates topologies with known ground truth, traces them with the
// full MDA and the MDA-Lite, and scores accuracy (vertex/edge/diamond
// recall and precision) against cost (probes sent). Each instance also
// runs the prior-seeded re-trace pipeline: the MDA-Lite's traces build an
// atlas snapshot, priors are extracted through the serving layer, and a
// prior-seeded re-trace is scored against an unseeded re-trace baseline
// (probe savings, relative edge recall, stale-prior fallbacks). The run
// is fully deterministic — same seeds, same records, for every worker
// count.
//
// Usage:
//
//	eval                                   # run the suite, print the accuracy/cost and prior re-trace tables
//	eval -list                             # list scenarios with descriptions and LB mixes
//	eval -scenarios 'flow-*' -seeds 5      # scenario selection and seed sweep
//	eval -out eval.jsonl                   # stream byte-stable records to JSONL
//	eval -golden testdata/eval_golden.jsonl  # compare against the committed golden,
//	                                         # exit 1 on drift beyond tolerance
//
// Regenerate the golden after a deliberate algorithm change with:
//
//	go run ./cmd/eval -out testdata/eval_golden.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mmlpt/internal/experiments"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/groundtruth"
	"mmlpt/internal/mda"
	"mmlpt/internal/traceio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected; it returns
// the exit code: 2 for usage errors, 1 for runtime errors and golden
// drift.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarios = fs.String("scenarios", "all", "comma-separated scenario names; a trailing * matches a prefix")
		seeds     = fs.Int("seeds", 3, "seed sweep width per scenario, at least 1")
		seed      = fs.Uint64("seed", 1, "base seed")
		phi       = fs.Int("phi", 0, fmt.Sprintf("MDA-Lite meshing budget, at least %d (0 = default)", mda.DefaultPhi))
		out       = fs.String("out", "", "stream eval records to this JSONL file")
		golden    = fs.String("golden", "", "compare the run against this golden JSONL, exit 1 on drift")
		list      = fs.Bool("list", false, "list scenarios with descriptions and LB mixes, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := ""
	switch {
	case fs.NArg() > 0:
		usage = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case *seeds < 1:
		usage = fmt.Sprintf("-seeds %d: want at least 1", *seeds)
	case *phi != 0 && *phi < mda.DefaultPhi:
		usage = fmt.Sprintf("-phi %d: want 0 (the default) or at least %d", *phi, mda.DefaultPhi)
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	suite := groundtruth.Suite()
	if *list {
		for _, sc := range suite {
			pairs := sc.Pairs
			if pairs == 0 {
				pairs = 2
			}
			fmt.Fprintf(stdout, "%-16s pairs=%d lb=%-28s %s\n", sc.Name, pairs, lbMix(sc.Gen.LB), sc.Description)
		}
		return 0
	}
	selected, err := groundtruth.Select(suite, *scenarios)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cfg := groundtruth.Config{
		Scenarios: selected,
		Seeds:     *seeds,
		BaseSeed:  *seed,
		Phi:       *phi,
	}
	var jw *traceio.JSONLWriter
	if *out != "" {
		jw, err = traceio.CreateJSONL(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cfg.OnRecord = func(rec *traceio.EvalRecord) error { return jw.Write(rec) }
	}

	records, err := groundtruth.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d eval records to %s (%d bytes)\n", len(records), *out, jw.Offset())
	}

	fmt.Fprint(stdout, experiments.FormatAccuracyCostTable(experiments.AccuracyCostTable(records)))
	fmt.Fprint(stdout, experiments.FormatPriorRetraceTable(experiments.PriorRetraceTable(records)))

	if *golden != "" {
		goldenRecs, err := groundtruth.LoadGolden(*golden, selected)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tol := groundtruth.Tolerances{Recall: groundtruth.DefaultRecallTolerance, Probes: groundtruth.DefaultProbesTolerance}
		drifts := groundtruth.CompareGolden(records, goldenRecs, tol)
		if len(drifts) > 0 {
			fmt.Fprintf(stderr, "golden compare FAILED against %s: %d drift(s)\n", *golden, len(drifts))
			for _, d := range drifts {
				fmt.Fprintln(stderr, d)
			}
			fmt.Fprintln(stderr, "if this change is deliberate, regenerate with: go run ./cmd/eval -out", *golden)
			return 1
		}
		fmt.Fprintf(stdout, "golden compare OK against %s (%d records, tol recall %.3g / probes %.3g)\n",
			*golden, len(goldenRecs), tol.Recall, tol.Probes)
	}
	return 0
}

// lbMix renders a scenario's load-balancer mode mix for -list.
func lbMix(m fakeroute.LBMix) string {
	perFlow := 1 - m.PerPacket - m.PerDestination
	if m.PerPacket == 0 && m.PerDestination == 0 {
		return "per-flow"
	}
	var parts []string
	if perFlow > 0 {
		parts = append(parts, fmt.Sprintf("per-flow %.0f%%", 100*perFlow))
	}
	if m.PerDestination > 0 {
		parts = append(parts, fmt.Sprintf("per-dest %.0f%%", 100*m.PerDestination))
	}
	if m.PerPacket > 0 {
		parts = append(parts, fmt.Sprintf("per-packet %.0f%%", 100*m.PerPacket))
	}
	return strings.Join(parts, "+")
}
