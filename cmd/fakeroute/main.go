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
	"os"

	"mmlpt/internal/experiments"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

func main() {
	var (
		shape    = flag.String("shape", "simplest", "topology to validate against")
		topoFile = flag.String("topology", "", "validate against a topology file instead of a named shape")
		samples  = flag.Int("samples", 50, "number of sample means")
		runs     = flag.Int("runs", 1000, "runs per sample")
		seed     = flag.Uint64("seed", 1, "random seed")
		bound    = flag.Float64("failure-bound", 0.05, "per-vertex failure bound for the stopping points")
		predict  = flag.Bool("predict-only", false, "print the exact prediction and exit")
	)
	flag.Parse()

	build, ok := fakeroute.Shapes[*shape]
	if *topoFile != "" {
		f, err := os.Open(*topoFile)
		if err == nil {
			g, perr := traceio.ParseTopology(f)
			f.Close()
			build, err = fakeroute.TopologyShape(g), perr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if !ok {
		fmt.Fprintf(os.Stderr, "unknown shape %q; available: %v\n", *shape, fakeroute.ShapeNames())
		os.Exit(2)
	}
	stop := mda.StoppingPoints(*bound, 64)

	if *predict {
		src := packet.MustParseAddr("192.0.2.1")
		dst := packet.MustParseAddr("198.51.100.77")
		_, path := fakeroute.BuildScenario(*seed, src, dst, build)
		fmt.Printf("topology %s (%s): predicted MDA failure probability %.6f\n",
			*shape, fakeroute.DescribeGraph(path.Graph), fakeroute.GraphFailureProb(path.Graph, stop))
		return
	}

	res := experiments.Sec3Validation(experiments.Sec3Config{
		Samples: *samples, RunsPerSample: *runs, Seed: *seed,
		Build: build, Stop: stop,
	})
	fmt.Print(experiments.FormatSec3(res))
}
