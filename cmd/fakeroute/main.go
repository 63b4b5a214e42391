// Command fakeroute statistically validates a multipath tracing
// algorithm's failure-probability bound against simulated topologies
// (Sec 3 of the paper).
//
// Usage:
//
//	fakeroute -shape simplest -samples 50 -runs 1000
//
// It prints the exact predicted failure probability (dynamic program over
// the stopping rule), the measured failure rate over samples × runs
// executions, and the 95% confidence interval — reproducing the paper's
// 0.03125 predicted / 0.03206 ± 0.00156 measured example at full scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mmlpt/internal/experiments"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected; it returns
// the exit code: 2 for usage errors, 1 for runtime errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fakeroute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shape    = fs.String("shape", "simplest", "topology to validate against")
		topoFile = fs.String("topology", "", "validate against a topology file instead of a named shape")
		samples  = fs.Int("samples", 50, "number of sample means")
		runs     = fs.Int("runs", 1000, "runs per sample")
		seed     = fs.Uint64("seed", 1, "random seed")
		bound    = fs.Float64("failure-bound", 0.05, "per-vertex failure bound for the stopping points, in (0,1)")
		predict  = fs.Bool("predict-only", false, "print the exact prediction and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	case !(*bound > 0 && *bound < 1):
		fmt.Fprintf(stderr, "-failure-bound %g: want a value in (0,1)\n", *bound)
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
	stop := mda.StoppingPoints(*bound, 64)

	if *predict {
		src := packet.MustParseAddr("192.0.2.1")
		dst := packet.MustParseAddr("198.51.100.77")
		_, path := fakeroute.BuildScenario(*seed, src, dst, build)
		fmt.Fprintf(stdout, "topology %s (%s): predicted MDA failure probability %.6f\n",
			*shape, fakeroute.DescribeGraph(path.Graph), fakeroute.GraphFailureProb(path.Graph, stop))
		return 0
	}

	res := experiments.Sec3Validation(experiments.Sec3Config{
		Samples: *samples, RunsPerSample: *runs, Seed: *seed,
		Build: build, Stop: stop,
	})
	fmt.Fprint(stdout, experiments.FormatSec3(res))
	return 0
}
