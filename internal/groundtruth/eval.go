package groundtruth

import (
	"os"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/nprand"
	"mmlpt/internal/par"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Config controls an evaluation run.
type Config struct {
	// Scenarios to evaluate (nil selects the committed Suite).
	Scenarios []Scenario
	// Seeds is the seed-sweep width per scenario (default 1).
	Seeds int
	// BaseSeed anchors the per-scenario seed streams.
	BaseSeed uint64
	// Phi is the MDA-Lite meshing budget (0 selects the default).
	Phi int
	// OnRecord, when non-nil, receives each record in deterministic
	// (scenario-major, then seed) order the moment its prefix of the
	// sweep has completed, the streaming hook cmd/eval writes JSONL
	// from. An error aborts the run.
	OnRecord func(*traceio.EvalRecord) error
	// Test seams: workers is the instance concurrency (0 = GOMAXPROCS;
	// records are identical for every count), and stop overrides the
	// default 95%-confidence stopping-point table for the nerf test
	// proving the golden compare catches a weakened stopping rule.
	workers int
	stop    []int
}

// Run evaluates every (scenario, seed) instance and returns the records
// in deterministic order. The worker pool is the same order-preserving
// primitive the survey runner uses (par.OrderedErr), so output is
// byte-identical for every worker count; the first error stops the run.
func Run(cfg Config) ([]*traceio.EvalRecord, error) {
	if cfg.Scenarios == nil {
		cfg.Scenarios = Suite()
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	type job struct {
		sc      Scenario
		seedIdx int
	}
	var jobs []job
	for _, sc := range cfg.Scenarios {
		for s := 0; s < cfg.Seeds; s++ {
			jobs = append(jobs, job{sc: sc, seedIdx: s})
		}
	}
	records := make([]*traceio.EvalRecord, 0, len(jobs))
	err := par.OrderedErr(len(jobs), cfg.workers, func(i int) (*traceio.EvalRecord, error) {
		return evaluate(jobs[i].sc, cfg.BaseSeed, jobs[i].seedIdx, cfg.Phi, cfg.stop)
	}, func(i int, rec *traceio.EvalRecord) error {
		records = append(records, rec)
		if cfg.OnRecord != nil {
			return cfg.OnRecord(rec)
		}
		return nil
	})
	return records, err
}

// retraceSeedSalt separates the re-trace passes' flow-seed stream from
// the first pass's: a re-survey is a second, independent measurement.
const retraceSeedSalt = 0x72657472 // "retr"

// evaluate scores one (scenario, seed index) instance. The full MDA and
// the MDA-Lite each run over a freshly built network with identical
// ground truth and identical reply behavior. The MDA-Lite's traces then
// populate an atlas whose snapshot round-trips through the serving layer
// (the same indexed v2 format atlasd serves) into a prior index, and its
// completed sessions donate their flow landings as hints. Two passes
// over the re-trace network — prior-seeded and unseeded, same flow
// seeds — measure probe savings against edge recall and staleness. Every
// discovered graph is diffed against the generator's.
func evaluate(sc Scenario, baseSeed uint64, seedIdx, phi int, stop []int) (*traceio.EvalRecord, error) {
	sc.fill()
	seed := scenarioSeed(baseSeed, sc.Name, seedIdx)
	rec := &traceio.EvalRecord{
		Scenario:  sc.Name,
		SeedIndex: seedIdx,
		Seed:      seed,
		Pairs:     sc.Pairs,
		FlowBased: sc.FlowBased,
	}
	rec.MDA = tracePairs(sc.Build(seed), sc.Retries, "mda", seed, stop, nil, mda.Trace)
	// The MDA-Lite column keeps its sessions, in pair order: their graphs
	// feed the atlas and their flow landings the priors' hints.
	inst := sc.Build(seed)
	var sessions []*mda.Session
	var graphs []*topo.Graph
	rec.MDALite = tracePairs(inst, sc.Retries, "mda-lite", seed, stop, nil,
		func(p probe.Prober, cfg mda.Config) *mda.Result {
			s := mda.NewSession(p, cfg)
			res := s.RunLite(phi)
			sessions, graphs = append(sessions, s), append(graphs, res.Graph)
			return res
		})
	rec.ProbeSavings = savings(rec.MDALite, rec.MDA)
	rec.RelativeEdgeRecall = relativeEdgeRecall(rec.MDALite, rec.MDA)

	al := atlas.New(atlas.Options{})
	for i, pair := range inst.Pairs {
		sr := traceio.NewSurveyRecord(pair.Src, pair.Dst, "mda-lite", graphs[i])
		sr.PairIndex = i
		if err := al.AddRecord(sr); err != nil {
			return nil, err
		}
	}
	ix, err := indexSnapshot(al)
	if err != nil {
		return nil, err
	}
	for i, pair := range inst.Pairs {
		if pp := ix.Lookup(pair.Src, pair.Dst); pp != nil {
			pp.CaptureLandings(sessions[i])
		}
	}

	retraceSeed := seed ^ retraceSeedSalt
	lite := func(p probe.Prober, cfg mda.Config) *mda.Result { return mda.TraceLite(p, cfg, phi) }
	rec.MDALitePrior = tracePairs(sc.BuildRetrace(seed), sc.Retries, "mda-lite-prior", retraceSeed, stop, ix, lite)
	rec.MDALiteRetrace = tracePairs(sc.BuildRetrace(seed), sc.Retries, "mda-lite-retrace", retraceSeed, stop, nil, lite)
	rec.PriorProbeSavings = savings(rec.MDALitePrior, rec.MDALiteRetrace)
	rec.PriorRelativeEdgeRecall = relativeEdgeRecall(rec.MDALitePrior, rec.MDALiteRetrace)
	rec.PriorStalePairs = rec.MDALitePrior.PriorStale
	return rec, nil
}

// savings is the fraction of base's probe cost ev avoided (0 when base
// sent none).
func savings(ev, base traceio.AlgoEval) float64 {
	if base.Probes == 0 {
		return 0
	}
	return 1 - float64(ev.Probes)/float64(base.Probes)
}

// relativeEdgeRecall is ev's edge recall relative to base's (1 when
// base found nothing).
func relativeEdgeRecall(ev, base traceio.AlgoEval) float64 {
	if base.EdgeRecall == 0 {
		return 1
	}
	return ev.EdgeRecall / base.EdgeRecall
}

// indexSnapshot round-trips an in-memory atlas through the on-disk
// snapshot format and the serving layer into a prior index, so eval
// priors are extracted exactly the way cmd/survey -prior extracts them.
func indexSnapshot(al *atlas.Atlas) (*prior.Index, error) {
	f, err := os.CreateTemp("", "eval-prior-*.atlas")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := al.Save(path); err != nil {
		return nil, err
	}
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	return prior.FromService(svc)
}

// tracePairs traces every pair of inst in order with trace — pair i
// under flow seed nprand.IndexedSeed(seed, i), seeded from its prior in
// ix if any — and aggregates the diffs against the instance's ground
// truth.
func tracePairs(inst *Instance, retries int, algo string, seed uint64, stop []int, ix *prior.Index,
	trace func(probe.Prober, mda.Config) *mda.Result) traceio.AlgoEval {
	var agg topo.DiffStats
	ev := traceio.AlgoEval{Algo: algo}
	for i, pair := range inst.Pairs {
		p := probe.NewSimProber(inst.Net, pair.Src, pair.Dst)
		p.Retries = retries
		cfg := mda.Config{Seed: nprand.IndexedSeed(seed, i), Stop: stop}
		if pp := ix.Lookup(pair.Src, pair.Dst); pp != nil {
			cfg.Prior = pp
		}
		res := trace(p, cfg)
		ev.Probes += probe.TotalSent(p)
		if res.ReachedDst {
			ev.Reached++
		}
		if res.SwitchedToMDA {
			ev.Switched++
		}
		ev.PriorHops += res.PriorHopsConfirmed
		if res.PriorAbandoned {
			ev.PriorStale++
		}
		agg.Add(topo.Diff(res.Graph, pair.Truth))
	}
	ev.VertexRecall = agg.VertexRecall()
	ev.EdgeRecall = agg.EdgeRecall()
	ev.DiamondRecall = agg.DiamondRecall()
	ev.VertexPrecision = agg.VertexPrecision()
	ev.EdgePrecision = agg.EdgePrecision()
	ev.FalseVertices = agg.FalseVertices
	ev.FalseEdges = agg.FalseEdges
	return ev
}
