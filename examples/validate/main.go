// Validate: use Fakeroute to check that the MDA implementation honours
// its failure-probability bound (the Sec 3 methodology, reduced scale).
//
// For the simplest diamond and the 95% stopping points, theory says the
// MDA misses part of the topology with probability exactly (1/2)^5 =
// 0.03125. The example computes that prediction with the exact dynamic
// program, measures the failure rate over repeated runs, and reports
// whether the prediction falls inside the confidence interval.
package main

import (
	"fmt"

	"mmlpt"
	"mmlpt/internal/experiments"
	"mmlpt/internal/fakeroute"
)

func main() {
	src := mmlpt.MustParseAddr("192.0.2.1")
	dst := mmlpt.MustParseAddr("198.51.100.77")

	// The exact prediction from the stopping-rule dynamic program.
	_, truth := mmlpt.BuildScenario(1, src, dst, mmlpt.SimplestDiamond)
	stop := mmlpt.StoppingPoints(0.05, 16)
	predicted := mmlpt.GraphFailureProb(truth, stop)
	fmt.Printf("topology: simplest diamond (%s)\n", fakeroute.DescribeGraph(truth))
	fmt.Printf("stopping points n1..n4 = %v\n", stop[1:5])
	fmt.Printf("predicted failure probability: %.5f\n\n", predicted)

	// Measure. The paper used 50 samples of 1000 runs (10 minutes on a
	// 2018 laptop); 10×300 keeps the example snappy.
	v := experiments.Sec3Validation(experiments.Sec3Config{
		Samples: 10, RunsPerSample: 300, Seed: 11,
	})
	fmt.Printf("measured over %d×%d runs: %.5f ± %.5f (95%% CI)\n",
		v.Samples, v.Runs, v.Measured, v.CI)
	if v.Measured-v.CI <= predicted && predicted <= v.Measured+v.CI {
		fmt.Println("the implementation respects its failure bound ✓")
	} else {
		fmt.Println("WARNING: measured failure rate outside the confidence interval")
	}
}
