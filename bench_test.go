package mmlpt

// Micro-benchmarks (run with `go test -bench=. -benchmem`): ablation
// benches for the design choices DESIGN.md calls out, the survey engine
// and the simulated probe round trip. The paper's tables and figures are
// regenerated by cmd/paperfig and pinned by the test suites; end-to-end
// performance is `go run ./bench`.

import (
	"path/filepath"
	"runtime"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
)

var (
	benchSrc = packet.MustParseAddr("192.0.2.1")
	benchDst = packet.MustParseAddr("198.51.100.77")
)

// ---- Ablation benches (DESIGN.md "design choices") ----

// BenchmarkAblationPhi contrasts the meshing-test budget phi=2 vs phi=4 on
// a diamond with adjacent multi-vertex hops.
func BenchmarkAblationPhi(b *testing.B) {
	for _, phi := range []int{2, 4} {
		b.Run(map[int]string{2: "phi2", 4: "phi4"}[phi], func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), benchSrc, benchDst, fakeroute.SymmetricDiamond)
				p := probe.NewSimProber(net, benchSrc, benchDst)
				p.Retries = 0
				res := mda.TraceLite(p, mda.Config{Seed: uint64(i)}, phi)
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
			return mda.TraceLite(p, mda.Config{Seed: seed}, 2)
		},
	}
	for name, run := range algos {
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
// encoded, written to a JSONL sink and folded into a record aggregate.
// The delta over BenchmarkSurveyParallel is the cost of incremental
// archival.
func BenchmarkSurveyStreaming(b *testing.B) {
	u := survey.Generate(survey.GenConfig{Seed: 5, Pairs: 200})
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jsonl := survey.NewJSONLSink(filepath.Join(dir, "records.jsonl"))
		res, err := survey.Run(u, survey.RunConfig{
			Algo: survey.AlgoMDALite, Retries: 1,
			Workers: runtime.GOMAXPROCS(0),
			Trace:   mda.Config{Seed: 5},
			Sinks:   []survey.Sink{jsonl, survey.NewAggregateSink()},
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
// session scratch and the reply is parsed into storage the prober reuses
// on its next call; see internal/fakeroute's BenchmarkProbeRoundTrip for
// the session level alone, per-flow and per-packet.
func BenchmarkSimProbeRoundTrip(b *testing.B) {
	net, _ := fakeroute.BuildScenario(1, benchSrc, benchDst, fakeroute.MeshedDiamond48)
	p := probe.NewSimProber(net, benchSrc, benchDst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Probe(uint16(i%1000), 3)
	}
}
