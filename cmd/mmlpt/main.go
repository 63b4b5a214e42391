// Command mmlpt is the Multilevel MDA-Lite Paris Traceroute tool, run
// against a Fakeroute-simulated topology.
//
// Usage:
//
//	mmlpt -shape meshed48 -algo multilevel -phi 2
//	mmlpt -shape asymmetric -algo mda-lite -seed 7
//
// It prints the IP-level multipath topology hop by hop, the diamonds with
// their survey metrics and, for the multilevel algorithm, the resolved
// alias sets and the router-level topology. With -runs N it traces N
// scenarios under derived seeds and reports the spread; resumable batches
// are cmd/survey's job.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"mmlpt"
	"mmlpt/internal/alias"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// algorithms maps each survey.Algo to its tracer: -algo takes the
// survey.Algo names, so a record's algorithm field reads the same
// whichever command wrote it.
var algorithms = [...]mmlpt.Algorithm{
	survey.AlgoMDA:        mmlpt.AlgoMDA,
	survey.AlgoMDALite:    mmlpt.AlgoMDALite,
	survey.AlgoSingleFlow: mmlpt.AlgoSingleFlow,
	survey.AlgoMultilevel: mmlpt.AlgoMultilevel,
}

// run is main with its arguments and output streams injected; it returns
// the exit code: 2 for usage errors, 1 for runtime errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmlpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algoNames := make([]string, len(algorithms))
	for a := range algorithms {
		algoNames[a] = survey.Algo(a).String()
	}
	var (
		shape    = fs.String("shape", "fig1", fmt.Sprintf("simulated topology %v", fakeroute.ShapeNames()))
		topoFile = fs.String("topology", "", "trace a topology file instead of a named shape")
		algo     = fs.String("algo", "mda-lite", fmt.Sprintf("algorithm %v", algoNames))
		phi      = fs.Int("phi", mda.DefaultPhi, fmt.Sprintf("MDA-Lite meshing-test budget, at least %d (0 = default)", mda.DefaultPhi))
		seed     = fs.Uint64("seed", 1, "random seed")
		bound    = fs.Float64("failure-bound", 0.05, "per-vertex failure probability bound, in (0,1) (0 = default)")
		runs     = fs.Int("runs", 1, "trace the scenario this many times under derived seeds, reporting variance")
		workers  = fs.Int("workers", 0, "concurrent trace workers for -runs > 1 (0 = GOMAXPROCS; results are identical)")
		jsonOut  = fs.Bool("json", false, "emit the result as one JSON trace record")
		out      = fs.String("out", "", "with -runs > 1: write one JSON trace record per run, in run order, to this JSONL file")
		verbose  = fs.Bool("v", false, "also print the ground truth")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := ""
	switch {
	case fs.NArg() > 0:
		usage = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case !(*bound >= 0 && *bound < 1):
		usage = fmt.Sprintf("-failure-bound %g: want 0 (the default) or a value in (0,1)", *bound)
	case *phi != 0 && *phi < mda.DefaultPhi:
		usage = fmt.Sprintf("-phi %d: want 0 (the default) or at least %d", *phi, mda.DefaultPhi)
	}
	if usage != "" {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	build, ok := fakeroute.Shapes[*shape]
	if *topoFile != "" {
		f, err := os.Open(*topoFile)
		if err == nil {
			g, perr := traceio.ParseTopology(f)
			f.Close()
			build, err = fakeroute.TopologyShape(g), perr
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else if !ok {
		fmt.Fprintf(stderr, "unknown shape %q; available: %v\n", *shape, fakeroute.ShapeNames())
		return 2
	}
	i := slices.Index(algoNames, *algo)
	if i < 0 {
		fmt.Fprintf(stderr, "unknown algorithm %q; available: %v\n", *algo, algoNames)
		return 2
	}
	opts := mmlpt.Options{
		Algorithm: algorithms[i], Phi: *phi, Seed: *seed,
		FailureBound: *bound, Workers: *workers,
	}

	src := mmlpt.MustParseAddr("192.0.2.1")
	dst := mmlpt.MustParseAddr("198.51.100.77")
	if *runs > 1 {
		// Repeated tracing under derived seeds: one fresh scenario per
		// run, traced by a worker pool; results come back in run order.
		if *jsonOut {
			fmt.Fprintln(stderr, "-json emits a single trace record; it cannot be combined with -runs > 1")
			return 2
		}
		probers := make([]mmlpt.Prober, *runs)
		for i := range probers {
			n, truth := mmlpt.BuildScenario(*seed+uint64(i), src, dst, build)
			if i == 0 && *verbose {
				fmt.Fprintf(stdout, "ground truth of run 0 (%s; later runs rebuild under seeds %d..%d):\n%s\n",
					*shape, *seed+1, *seed+uint64(*runs-1), truth)
			}
			probers[i] = mmlpt.NewSimProber(n, src, dst)
		}
		results := mmlpt.TraceEach(probers, opts)

		var total uint64
		reached, switched := 0, 0
		for i, r := range results {
			fmt.Fprintf(stdout, "run %d: probes=%d reached=%v switched=%v\n",
				i, r.Probes(), r.IP.ReachedDst, r.IP.SwitchedToMDA)
			total += r.Probes()
			if r.IP.ReachedDst {
				reached++
			}
			if r.IP.SwitchedToMDA {
				switched++
			}
		}
		if *out != "" {
			if err := writeRecords(*out, src, dst, *algo, results); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "mean probes %.1f over %d runs, reached %d/%d, switched %d/%d\n",
			float64(total)/float64(len(results)), len(results),
			reached, len(results), switched, len(results))
		return 0
	}

	net, truth := mmlpt.BuildScenario(*seed, src, dst, build)
	if *verbose {
		fmt.Fprintf(stdout, "ground truth (%s):\n%s\n", *shape, truth)
	}
	res := mmlpt.Trace(mmlpt.NewSimProber(net, src, dst), opts)

	if *jsonOut {
		if err := record(src, dst, *algo, res).WriteJSONL(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "mmlpt %s -> %s  algo=%s probes=%d reached=%v switched=%v\n",
		src, dst, *algo, res.Probes(), res.IP.ReachedDst, res.IP.SwitchedToMDA)
	fmt.Fprint(stdout, res.IP.Graph)

	for i, d := range res.IP.Graph.Diamonds() {
		m := d.ComputeMetrics()
		fmt.Fprintf(stdout, "diamond %d: %s..%s len=%d width=%d asym=%d meshed=%v meshed-ratio=%.2f\n",
			i, d.DivAddr, d.ConvAddr, m.MaxLength, m.MaxWidth,
			m.MaxWidthAsymmetry, m.Meshed, m.RatioMeshedHops)
	}

	if res.Multilevel != nil {
		fmt.Fprintf(stdout, "\nalias resolution: %d trace + %d alias probes\n",
			res.Multilevel.TraceProbes, res.Multilevel.AliasProbes)
		for _, s := range alias.RouterSets(res.Multilevel.Sets) {
			fmt.Fprintf(stdout, "router: %v\n", s.Addrs)
		}
		fmt.Fprintf(stdout, "router-level topology:\n%s", res.Multilevel.RouterGraph)
	}
	return 0
}

// record builds the trace record of one result. Its probes field counts
// every packet the trace sent, alias probes included, as a survey's
// records do.
func record(src, dst mmlpt.Addr, algo string, r *mmlpt.Result) *traceio.SurveyRecord {
	return survey.TraceRecord(src, dst, algo, r.IP.Graph, r.Probes(), r.IP.ReachedDst, r.IP.SwitchedToMDA, r.Multilevel)
}

// writeRecords writes one trace record per run, indexed by run.
func writeRecords(path string, src, dst mmlpt.Addr, algo string, results []*mmlpt.Result) error {
	jw, err := traceio.CreateJSONL(path)
	if err != nil {
		return err
	}
	for i, r := range results {
		rec := record(src, dst, algo, r)
		rec.PairIndex = i
		if err := jw.Write(rec); err != nil {
			jw.Close()
			return err
		}
	}
	return jw.Close()
}
