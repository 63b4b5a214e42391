package experiments

import (
	"fmt"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/probe"
	"mmlpt/internal/stats"
	"mmlpt/internal/topo"
)

// Sec3Config scales the Fakeroute statistical validation.
type Sec3Config struct {
	// Samples is the number of sample means (paper: 50); RunsPerSample
	// the runs per sample (paper: 1000).
	Samples, RunsPerSample int
	Seed                   uint64
}

// Sec3Result is the validation outcome.
type Sec3Result struct {
	Predicted float64 // exact failure probability from the DP
	Measured  float64 // overall mean failure rate
	CI        float64 // 95% confidence half-width over sample means
	Samples   int
	Runs      int
}

// Sec3Validation reproduces the Sec 3 experiment: the MDA is run
// repeatedly over the simplest diamond under the 95% stopping points,
// and its measured failure rate is checked against the exact prediction
// (0.03125, which the paper measured as 0.03206 ± 0.00156).
func Sec3Validation(cfg Sec3Config) Sec3Result {
	if cfg.Samples == 0 {
		cfg.Samples = 50
	}
	if cfg.RunsPerSample == 0 {
		cfg.RunsPerSample = 1000
	}
	stop := mda.Default95(64)

	// The prediction needs the ground-truth graph only.
	_, path0 := fakeroute.BuildScenario(cfg.Seed, expSrc, expDst, fakeroute.SimplestDiamond)
	predicted := fakeroute.GraphFailureProb(path0.Graph, stop)

	seed := cfg.Seed
	sampleMeans := make([]float64, 0, cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		failures := 0
		for r := 0; r < cfg.RunsPerSample; r++ {
			seed += 0x9e3779b9
			net, path := fakeroute.BuildScenario(seed, expSrc, expDst, fakeroute.SimplestDiamond)
			p := probe.NewSimProber(net, expSrc, expDst)
			p.Retries = 0
			res := mda.Trace(p, mda.Config{Seed: seed, Stop: stop})
			vf, ef := topo.SubgraphCoverage(res.Graph, path.Graph)
			if vf < 1 || ef < 1 {
				failures++
			}
		}
		sampleMeans = append(sampleMeans, float64(failures)/float64(cfg.RunsPerSample))
	}
	mean, ci := stats.MeanCI(sampleMeans, 1.96)
	return Sec3Result{
		Predicted: predicted, Measured: mean, CI: ci,
		Samples: cfg.Samples, Runs: cfg.RunsPerSample,
	}
}

// FormatSec3 renders the validation result.
func FormatSec3(r Sec3Result) string {
	return fmt.Sprintf(
		"# Sec 3 Fakeroute validation (%d samples x %d runs)\npredicted_failure %.5f\nmeasured_failure  %.5f\nci95_halfwidth    %.5f\nwithin_ci         %v\n",
		r.Samples, r.Runs, r.Predicted, r.Measured, r.CI,
		r.Measured-r.CI <= r.Predicted && r.Predicted <= r.Measured+r.CI)
}
