package groundtruth

import (
	"os"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
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
	// Stop overrides the MDA stopping-point table (nil selects the
	// default 95%-confidence table). The knob exists for ablations — and
	// for the nerf test proving the golden compare catches a weakened
	// stopping rule.
	Stop []int
	// WithPrior adds the atlas-prior re-trace columns to every record: an
	// unseeded MDA-Lite pass builds an atlas snapshot, priors are
	// extracted from it through the serving layer, and a prior-seeded
	// re-trace is scored against an unseeded re-trace baseline over the
	// same (possibly churned) network.
	WithPrior bool
	// Workers is how many (scenario, seed) instances are evaluated
	// concurrently (0 = GOMAXPROCS, 1 = serial). Instances are fully
	// independent — each builds its own networks — so records are
	// identical for every worker count.
	Workers int
	// OnRecord, when non-nil, receives each record in deterministic
	// (scenario-major, then seed) order the moment its prefix of the
	// sweep has completed, the streaming hook cmd/eval writes JSONL
	// from. An error aborts the run.
	OnRecord func(*traceio.EvalRecord) error
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
	err := par.OrderedErr(len(jobs), cfg.Workers, func(i int) (*traceio.EvalRecord, error) {
		j := jobs[i]
		if cfg.WithPrior {
			return EvaluateWithPrior(j.sc, cfg.BaseSeed, j.seedIdx, cfg.Phi, cfg.Stop)
		}
		return Evaluate(j.sc, cfg.BaseSeed, j.seedIdx, cfg.Phi, cfg.Stop), nil
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
	rec.MDA = runAlgo(sc, seed, phi, stop, false)
	rec.MDALite = runAlgo(sc, seed, phi, stop, true)
	if rec.MDA.Probes > 0 {
		rec.ProbeSavings = 1 - float64(rec.MDALite.Probes)/float64(rec.MDA.Probes)
	}
	rec.RelativeEdgeRecall = 1
	if rec.MDA.EdgeRecall > 0 {
		rec.RelativeEdgeRecall = rec.MDALite.EdgeRecall / rec.MDA.EdgeRecall
	}
	return rec
}

// runAlgo traces every pair of a fresh instance with one algorithm and
// aggregates the diff against ground truth.
func runAlgo(sc Scenario, seed uint64, phi int, stop []int, lite bool) traceio.AlgoEval {
	inst := sc.Build(seed)
	var agg topo.DiffStats
	ev := traceio.AlgoEval{Algo: "mda"}
	if lite {
		ev.Algo = "mda-lite"
	}
	for i, pair := range inst.Pairs {
		p := probe.NewSimProber(inst.Net, pair.Src, pair.Dst)
		p.Retries = sc.Retries
		cfg := mda.Config{Seed: nprand.IndexedSeed(seed, i), Stop: stop}
		var res *mda.Result
		if lite {
			res = mdalite.Trace(p, cfg, phi)
		} else {
			res = mda.Trace(p, cfg)
		}
		ev.Probes += probe.TotalSent(p)
		if res.ReachedDst {
			ev.Reached++
		}
		if res.SwitchedToMDA {
			ev.Switched++
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
		res := mdalite.Run(s, phi)
		sessions[i] = s
		vs, es := traceio.EncodeGraph(res.Graph)
		err := al.AddRecord(&traceio.SurveyRecord{
			PairIndex: i,
			Trace: traceio.JSONTrace{
				Src: pair.Src.String(), Dst: pair.Dst.String(),
				Algorithm: "mda-lite", Vertices: vs, Edges: es,
			},
		})
		if err != nil {
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

	seeded := runRetrace(sc, seed, phi, stop, ix)
	baseline := runRetrace(sc, seed, phi, stop, nil)
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

// runRetrace traces every pair of a re-trace instance with the MDA-Lite,
// prior-seeded when ix is non-nil, and aggregates the diff against the
// re-trace ground truth (churned pairs' truth is their new route).
func runRetrace(sc Scenario, seed uint64, phi int, stop []int, ix *prior.Index) traceio.AlgoEval {
	inst := sc.BuildRetrace(seed)
	var agg topo.DiffStats
	ev := traceio.AlgoEval{Algo: "mda-lite-retrace"}
	if ix != nil {
		ev.Algo = "mda-lite-prior"
	}
	for i, pair := range inst.Pairs {
		p := probe.NewSimProber(inst.Net, pair.Src, pair.Dst)
		p.Retries = sc.Retries
		cfg := mda.Config{Seed: nprand.IndexedSeed(seed^retraceSeedSalt, i), Stop: stop}
		if ix != nil {
			if pp := ix.Lookup(pair.Src, pair.Dst); pp != nil {
				cfg.Prior = pp
			}
		}
		res := mdalite.Trace(p, cfg, phi)
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
