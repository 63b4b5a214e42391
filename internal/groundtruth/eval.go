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
	// WithPrior adds the atlas-prior re-trace columns to every record: an
	// unseeded MDA-Lite pass builds an atlas snapshot, priors are
	// extracted from it through the serving layer, and a prior-seeded
	// re-trace is scored against an unseeded re-trace baseline over the
	// same (possibly churned) network.
	WithPrior bool
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
		j := jobs[i]
		if cfg.WithPrior {
			return EvaluateWithPrior(j.sc, cfg.BaseSeed, j.seedIdx, cfg.Phi, cfg.stop)
		}
		return Evaluate(j.sc, cfg.BaseSeed, j.seedIdx, cfg.Phi, cfg.stop), nil
	}, func(i int, rec *traceio.EvalRecord) error {
		records = append(records, rec)
		if cfg.OnRecord != nil {
			return cfg.OnRecord(rec)
		}
		return nil
	})
	return records, err
}

// Evaluate scores one (scenario, seed index) instance: the full MDA and
// the MDA-Lite each run over a freshly built network with identical
// ground truth and identical reply behavior, and each discovered graph
// is diffed against the generator's.
func Evaluate(sc Scenario, baseSeed uint64, seedIdx, phi int, stop []int) *traceio.EvalRecord {
	sc.fill()
	seed := scenarioSeed(baseSeed, sc.Name, seedIdx)
	rec := &traceio.EvalRecord{
		Scenario:  sc.Name,
		SeedIndex: seedIdx,
		Seed:      seed,
		Pairs:     sc.Pairs,
		FlowBased: sc.FlowBased,
	}
	lite := func(p probe.Prober, cfg mda.Config) *mda.Result { return mda.TraceLite(p, cfg, phi) }
	rec.MDA = tracePairs(sc.Build(seed), sc.Retries, "mda", seed, stop, nil, mda.Trace)
	rec.MDALite = tracePairs(sc.Build(seed), sc.Retries, "mda-lite", seed, stop, nil, lite)
	if rec.MDA.Probes > 0 {
		rec.ProbeSavings = 1 - float64(rec.MDALite.Probes)/float64(rec.MDA.Probes)
	}
	rec.RelativeEdgeRecall = 1
	if rec.MDA.EdgeRecall > 0 {
		rec.RelativeEdgeRecall = rec.MDALite.EdgeRecall / rec.MDA.EdgeRecall
	}
	return rec
}

// retraceSeedSalt separates the re-trace passes' flow-seed stream from
// the first pass's: a re-survey is a second, independent measurement.
const retraceSeedSalt = 0x72657472 // "retr"

// EvaluateWithPrior scores one instance like Evaluate, then adds the
// atlas-prior re-trace columns. An unseeded MDA-Lite pass over the
// pre-churn network populates an atlas whose snapshot round-trips
// through the serving layer (the same indexed v2 format atlasd serves)
// into a prior index; the completed sessions donate their flow landings
// as hints. Two passes over the re-trace network — prior-seeded and
// unseeded, same flow seeds — then measure probe savings against edge
// recall and staleness.
func EvaluateWithPrior(sc Scenario, baseSeed uint64, seedIdx, phi int, stop []int) (*traceio.EvalRecord, error) {
	rec := Evaluate(sc, baseSeed, seedIdx, phi, stop)
	sc.fill()
	seed := scenarioSeed(baseSeed, sc.Name, seedIdx)

	// Pass 1: unseeded MDA-Lite over the pre-churn network, feeding the
	// atlas. Sessions are kept so their flow landings become hints.
	inst := sc.Build(seed)
	al := atlas.New(atlas.Options{})
	sessions := make([]*mda.Session, len(inst.Pairs))
	for i, pair := range inst.Pairs {
		p := probe.NewSimProber(inst.Net, pair.Src, pair.Dst)
		p.Retries = sc.Retries
		s := mda.NewSession(p, mda.Config{Seed: nprand.IndexedSeed(seed, i), Stop: stop})
		res := s.RunLite(phi)
		sessions[i] = s
		al.AddGraph(i, res.Graph)
		al.AddPair(i, pair.Src.String(), pair.Dst.String())
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
	seeded := tracePairs(sc.BuildRetrace(seed), sc.Retries, "mda-lite-prior", retraceSeed, stop, ix, lite)
	baseline := tracePairs(sc.BuildRetrace(seed), sc.Retries, "mda-lite-retrace", retraceSeed, stop, nil, lite)
	rec.MDALitePrior, rec.MDALiteRetrace = &seeded, &baseline
	if baseline.Probes > 0 {
		rec.PriorProbeSavings = 1 - float64(seeded.Probes)/float64(baseline.Probes)
	}
	rec.PriorRelativeEdgeRecall = 1
	if baseline.EdgeRecall > 0 {
		rec.PriorRelativeEdgeRecall = seeded.EdgeRecall / baseline.EdgeRecall
	}
	rec.PriorStalePairs = seeded.PriorStale
	return rec, nil
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

// tracePairs traces every pair of inst with trace — pair i under flow
// seed nprand.IndexedSeed(seed, i), seeded from its prior in ix if any —
// and aggregates the diffs against the instance's ground truth.
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
