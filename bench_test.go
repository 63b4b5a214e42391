package mmlpt

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`), plus
// ablation benches for the design choices DESIGN.md calls out. Benchmark
// scale is reduced relative to the paper (the full scale is available via
// cmd/paperfig -scale); the shape assertions live in the test suites.

import (
	"path/filepath"
	"runtime"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/experiments"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
)

var (
	benchSrc = packet.MustParseAddr("192.0.2.1")
	benchDst = packet.MustParseAddr("198.51.100.77")
)

// BenchmarkFig1DiamondCost regenerates the Sec 2.1/2.3.1 worked example:
// MDA vs MDA-Lite probe counts on the Fig 1 diamonds.
func BenchmarkFig1DiamondCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1(experiments.Fig1Config{Runs: 5, Seed: uint64(i)})
	}
}

// BenchmarkFig2MeshingDetection regenerates the Fig 2 CDFs: Eq. (1)
// missing-meshing probabilities over the survey's meshed hop pairs.
func BenchmarkFig2MeshingDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.IPSurvey(experiments.SurveyConfig{Pairs: 150, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.MeshMissCDF(survey.Measured)
		_ = res.MeshMissCDF(survey.Distinct)
	}
}

// BenchmarkFig3SimTopologies regenerates the Fig 3 discovery curves on the
// four Sec 2.4.1 topologies.
func BenchmarkFig3SimTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(experiments.Fig3Config{Runs: 5, Seed: uint64(i)})
	}
}

// BenchmarkFig4Comparative regenerates the Fig 4 ratio CDFs (five tool
// variants over diamond-bearing pairs).
func BenchmarkFig4Comparative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(experiments.Fig4Config{Pairs: 30, Seed: uint64(i)})
	}
}

// BenchmarkTable1Aggregate regenerates the Table 1 aggregated-topology
// ratios (same pipeline as Fig 4; kept separate so the table has its own
// bench target).
func BenchmarkTable1Aggregate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Fig4Config{Pairs: 30, Seed: uint64(i) + 1000})
		_ = r.Table1
	}
}

// BenchmarkSec3FailureValidation regenerates the Fakeroute statistical
// validation of the MDA failure bound on the simplest diamond.
func BenchmarkSec3FailureValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Sec3Validation(experiments.Sec3Config{
			Samples: 5, RunsPerSample: 100, Seed: uint64(i),
		})
	}
}

// BenchmarkFig5AliasRounds regenerates the round-by-round alias
// resolution precision/recall/probe-ratio evaluation.
func BenchmarkFig5AliasRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(experiments.Fig5Config{Pairs: 10, Rounds: 4, Seed: uint64(i)})
	}
}

// BenchmarkTable2DirectIndirect regenerates the indirect-vs-direct alias
// outcome matrix.
func BenchmarkTable2DirectIndirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(experiments.Table2Config{Pairs: 10, Rounds: 3, Seed: uint64(i)})
	}
}

// BenchmarkFig7WidthAsymmetry through BenchmarkFig11Joint regenerate the
// Sec 5.1 IP-level survey figures.
func BenchmarkFig7WidthAsymmetry(b *testing.B) {
	benchIPSurveyFigure(b, func(r *survey.RecordAggregate) {
		_ = r.WidthAsymmetryDist(survey.Measured)
		_ = r.WidthAsymmetryDist(survey.Distinct)
	})
}

func BenchmarkFig8MaxProbDiff(b *testing.B) {
	benchIPSurveyFigure(b, func(r *survey.RecordAggregate) {
		_ = r.MaxProbDiffCDF(survey.Measured)
		_ = r.MaxProbDiffCDF(survey.Distinct)
	})
}

func BenchmarkFig9MeshedRatio(b *testing.B) {
	benchIPSurveyFigure(b, func(r *survey.RecordAggregate) {
		_ = r.MeshedRatioCDF(survey.Measured)
		_ = r.MeshedRatioCDF(survey.Distinct)
	})
}

func BenchmarkFig10LengthWidth(b *testing.B) {
	benchIPSurveyFigure(b, func(r *survey.RecordAggregate) {
		_ = r.LengthDist(survey.Measured)
		_ = r.WidthDist(survey.Measured)
		_ = r.LengthDist(survey.Distinct)
		_ = r.WidthDist(survey.Distinct)
	})
}

func BenchmarkFig11Joint(b *testing.B) {
	benchIPSurveyFigure(b, func(r *survey.RecordAggregate) {
		_ = r.JointLengthWidth(survey.Measured)
		_ = r.JointLengthWidth(survey.Distinct)
	})
}

func benchIPSurveyFigure(b *testing.B, extract func(*survey.RecordAggregate)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.IPSurvey(experiments.SurveyConfig{Pairs: 150, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		extract(res)
	}
}

// BenchmarkFig12RouterSizes, BenchmarkTable3AliasEffect, BenchmarkFig13 and
// BenchmarkFig14 regenerate the Sec 5.2 router-level survey artifacts.
func BenchmarkFig12RouterSizes(b *testing.B) {
	benchRouterSurvey(b, func(agg *survey.RecordAggregate) {
		_, _ = agg.RouterSizeCDFs()
	})
}

func BenchmarkTable3AliasEffect(b *testing.B) {
	benchRouterSurvey(b, func(agg *survey.RecordAggregate) {
		_ = agg.Table3()
	})
}

func BenchmarkFig13WidthBeforeAfter(b *testing.B) {
	benchRouterSurvey(b, func(agg *survey.RecordAggregate) {
		_, _ = agg.WidthBeforeAfter()
	})
}

func BenchmarkFig14JointBeforeAfter(b *testing.B) {
	benchRouterSurvey(b, func(agg *survey.RecordAggregate) {
		_ = agg.JointWidthBeforeAfter()
	})
}

func benchRouterSurvey(b *testing.B, extract func(*survey.RecordAggregate)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		agg, err := experiments.RouterSurvey(experiments.SurveyConfig{
			Pairs: 30, Seed: uint64(i), Rounds: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		extract(agg)
	}
}

// ---- Ablation benches (DESIGN.md "design choices") ----

// BenchmarkAblationPhi contrasts the meshing-test budget phi=2 vs phi=4 on
// a diamond with adjacent multi-vertex hops.
func BenchmarkAblationPhi(b *testing.B) {
	for _, phi := range []int{2, 4} {
		phi := phi
		b.Run(map[int]string{2: "phi2", 4: "phi4"}[phi], func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), benchSrc, benchDst, fakeroute.SymmetricDiamond)
				p := probe.NewSimProber(net, benchSrc, benchDst)
				p.Retries = 0
				res := mdalite.Trace(p, mda.Config{Seed: uint64(i)}, phi)
				probes += res.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}

// BenchmarkAblationStoppingPoints contrasts the 95% table against the
// tighter Veitch Table 1 on the wide diamond.
func BenchmarkAblationStoppingPoints(b *testing.B) {
	tables := map[string][]int{
		"eps0.05":  mda.Default95(64),
		"veitchT1": mda.VeitchTable1(64),
	}
	for name, nk := range tables {
		nk := nk
		b.Run(name, func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), benchSrc, benchDst, fakeroute.MaxLength2Diamond)
				p := probe.NewSimProber(net, benchSrc, benchDst)
				p.Retries = 0
				res := mda.Trace(p, mda.Config{Seed: uint64(i), Stop: nk})
				probes += res.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}

// BenchmarkAblationNodeControl measures the node-control overhead delta:
// MDA (per-vertex, node control) vs MDA-Lite (hop-by-hop, none) on the
// unmeshed Fig 1 diamond.
func BenchmarkAblationNodeControl(b *testing.B) {
	algos := map[string]func(p probe.Prober, seed uint64) *mda.Result{
		"mda": func(p probe.Prober, seed uint64) *mda.Result {
			return mda.Trace(p, mda.Config{Seed: seed})
		},
		"mdalite": func(p probe.Prober, seed uint64) *mda.Result {
			return mdalite.Trace(p, mda.Config{Seed: seed}, 2)
		},
	}
	for name, run := range algos {
		run := run
		b.Run(name, func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), benchSrc, benchDst, fakeroute.Fig1UnmeshedDiamond)
				p := probe.NewSimProber(net, benchSrc, benchDst)
				p.Retries = 0
				res := run(p, uint64(i))
				probes += res.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}

// BenchmarkAblationFlowReuse contrasts the MDA-Lite's reuse of
// previous-hop flow identifiers against minting fresh flows at every hop:
// reuse seeds edges for free, fresh flows push that work onto the
// deterministic edge-completion step.
func BenchmarkAblationFlowReuse(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "reuse"
		if disable {
			name = "fresh"
		}
		disable := disable
		b.Run(name, func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), benchSrc, benchDst, fakeroute.SymmetricDiamond)
				p := probe.NewSimProber(net, benchSrc, benchDst)
				p.Retries = 0
				res := mdalite.Trace(p, mda.Config{Seed: uint64(i), DisableFlowReuse: disable}, 2)
				probes += res.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}

// BenchmarkSurveySerial and BenchmarkSurveyParallel contrast the
// worker-pool survey runner at Workers=1 against all cores on one shared
// universe. The runner aggregates in pair order, so both configurations
// produce identical results; only the wall clock differs (expect the
// parallel variant to approach a core-count speedup on multi-core
// hardware, as the per-pair traces share no mutable state).
func BenchmarkSurveySerial(b *testing.B) { benchSurveyWorkers(b, survey.AlgoMDALite, 1) }
func BenchmarkSurveyParallel(b *testing.B) {
	benchSurveyWorkers(b, survey.AlgoMDALite, runtime.GOMAXPROCS(0))
}

// BenchmarkSurveyMDASerial/Parallel run the same universe under the full
// MDA — the tracer cmd/survey -level ip and the ip-survey workload of
// ./bench run — so the bench artifacts carry the per-vertex node-control
// path (mda.Session bookkeeping dominates it) next to the MDA-Lite one.
func BenchmarkSurveyMDASerial(b *testing.B) { benchSurveyWorkers(b, survey.AlgoMDA, 1) }
func BenchmarkSurveyMDAParallel(b *testing.B) {
	benchSurveyWorkers(b, survey.AlgoMDA, runtime.GOMAXPROCS(0))
}

func benchSurveyWorkers(b *testing.B, algo survey.Algo, workers int) {
	b.Helper()
	u := survey.Generate(survey.GenConfig{Seed: 5, Pairs: 200})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := survey.Run(u, survey.RunConfig{
			Algo: algo, Retries: 1, Workers: workers,
			Trace: mda.Config{Seed: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != 200 {
			b.Fatalf("outcomes = %d", len(res.Outcomes))
		}
	}
	b.ReportMetric(float64(200*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkSurveyStreaming measures the streaming pipeline against the
// in-memory baseline above: the same 200-pair survey with every record
// encoded, written to a JSONL sink and folded into a record aggregate,
// with periodic checkpoints. The delta over BenchmarkSurveyParallel is
// the cost of incremental archival.
func BenchmarkSurveyStreaming(b *testing.B) {
	u := survey.Generate(survey.GenConfig{Seed: 5, Pairs: 200})
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jsonl := survey.NewJSONLSink(filepath.Join(dir, "records.jsonl"))
		res, err := survey.Run(u, survey.RunConfig{
			Algo: survey.AlgoMDALite, Retries: 1,
			Workers:    runtime.GOMAXPROCS(0),
			Trace:      mda.Config{Seed: 5},
			Sinks:      []survey.Sink{jsonl, survey.NewAggregateSink()},
			Checkpoint: filepath.Join(dir, "records.ckpt"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := jsonl.Close(); err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != 200 {
			b.Fatalf("outcomes = %d", len(res.Outcomes))
		}
	}
	b.ReportMetric(float64(200*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkSurveyRetraceUnseeded and BenchmarkSurveyRetraceWithPrior
// contrast a re-survey of an already-atlased universe without and with
// the atlas prior: the headline re-trace claim (≥30% fewer probes at
// equal recall) as a wall-clock benchmark. Setup — the first survey
// pass, the snapshot write and the prior extraction through the serving
// layer — happens outside the timer; the measured region is only the
// re-trace run itself.
func BenchmarkSurveyRetraceUnseeded(b *testing.B)  { benchSurveyRetrace(b, false) }
func BenchmarkSurveyRetraceWithPrior(b *testing.B) { benchSurveyRetrace(b, true) }

func benchSurveyRetrace(b *testing.B, seeded bool) {
	b.Helper()
	u := survey.Generate(survey.GenConfig{Seed: 5, Pairs: 200})
	var ix *prior.Index
	if seeded {
		as := survey.NewAtlasSink(atlas.Options{})
		if _, err := survey.Run(u, survey.RunConfig{
			Algo: survey.AlgoMDALite, Retries: 1,
			Trace: mda.Config{Seed: 5},
			Sinks: []survey.Sink{as},
		}); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "prior.atlas")
		if err := as.Atlas.Save(path); err != nil {
			b.Fatal(err)
		}
		svc, err := serve.Open(path, serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ix, err = prior.FromService(svc)
		svc.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	var probes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := survey.Run(u, survey.RunConfig{
			Algo: survey.AlgoMDALite, Retries: 1,
			Workers: runtime.GOMAXPROCS(0),
			Trace:   mda.Config{Seed: 6},
			Prior:   ix,
		})
		if err != nil {
			b.Fatal(err)
		}
		probes += res.TotalProbes
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/run")
}

// BenchmarkSimProbeRoundTrip measures one full probe round trip through
// the prober and simulator (serialize, route, craft reply, parse): the
// hot path of every survey. In steady state it is allocation-free — the
// probe serializes into prober scratch, the session crafts the reply into
// session scratch and the parsed reply comes from a chunked arena; see
// internal/fakeroute's BenchmarkProbeRoundTrip for the session level
// alone, per-flow and per-packet.
func BenchmarkSimProbeRoundTrip(b *testing.B) {
	net, _ := fakeroute.BuildScenario(1, benchSrc, benchDst, fakeroute.MeshedDiamond48)
	p := probe.NewSimProber(net, benchSrc, benchDst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Probe(uint16(i%1000), 3)
	}
}
