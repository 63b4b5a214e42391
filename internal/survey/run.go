package survey

import (
	"fmt"
	"hash/fnv"
	"os"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/nprand"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Algo selects the tracing algorithm for a survey run.
type Algo int

const (
	AlgoMDA Algo = iota
	AlgoMDALite
	AlgoSingleFlow
	AlgoMultilevel
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoMDA:
		return "mda"
	case AlgoMDALite:
		return "mda-lite"
	case AlgoSingleFlow:
		return "single-flow"
	case AlgoMultilevel:
		return "multilevel"
	default:
		return "unknown"
	}
}

// DiamondRecord captures one measured diamond and its survey metrics.
type DiamondRecord struct {
	Key         topo.DiamondKey
	PairIndex   int
	Metrics     topo.Metrics
	MaxProbDiff float64
	// MeshMissProbs holds, for each meshed hop pair of the diamond, the
	// Eq. (1) probability that the MDA-Lite with the surveyed phi misses
	// the meshing (Fig 2's sample values).
	MeshMissProbs []float64
}

// TraceOutcome is the result of tracing one pair.
type TraceOutcome struct {
	PairIndex int
	Pair      Pair
	Probes    uint64
	Reached   bool
	Switched  bool
	Graph     *topo.Graph
	Diamonds  []DiamondRecord
	// PriorHops counts hops confirmed from an atlas prior; PriorStale
	// marks a trace whose prior mismatched the live route.
	PriorHops  int
	PriorStale bool
	// ML is set for multilevel runs.
	ML *core.Result
}

// Result aggregates a survey run.
type Result struct {
	Algo     Algo
	Outcomes []TraceOutcome
	// Measured lists every diamond encounter; Distinct keeps the first
	// encounter per (divergence, convergence) key.
	Measured []DiamondRecord
	Distinct map[topo.DiamondKey]DiamondRecord
	// LBTraces counts traces that found at least one diamond.
	LBTraces int
	// TotalProbes across all traces.
	TotalProbes uint64
}

// RunConfig controls a survey run.
type RunConfig struct {
	Algo Algo
	// Trace is the base trace configuration (stopping points etc.).
	Trace mda.Config
	// Phi is the MDA-Lite meshing budget.
	Phi int
	// MaxPairs truncates the pair list (0 = all).
	MaxPairs int
	// OnlyLB restricts to pairs whose ground truth has a load balancer.
	OnlyLB bool
	// Multilevel rounds/probes (multilevel runs only).
	Rounds, ProbesPerRound int
	// Retries per probe (0 = prober default).
	Retries int
	// Prior seeds MDA-Lite traces from an atlas-derived index: each pair
	// with an indexed prior probes only to its confirmation budget and
	// falls back to full discovery on mismatch. Nil traces unseeded. The
	// index's fingerprint is part of the options hash, so a checkpointed
	// run refuses to resume under a different prior.
	Prior *prior.Index
	// Workers is how many pairs are traced concurrently. Zero selects
	// GOMAXPROCS; one forces a serial walk. Per-pair seeds and per-trace
	// network sessions make every trace independent, so the aggregated
	// result is identical for every worker count.
	Workers int

	// SpanStart/SpanCount restrict the run to the contiguous slice
	// [SpanStart, SpanStart+SpanCount) of the deterministic selected-job
	// list — the same list a checkpoint's Done count indexes. SpanCount
	// zero with SpanStart zero traces everything. The distributed control
	// plane (internal/dispatch) traces one such span per work-unit claim;
	// records keep their global pair indices and derived seeds, so unit
	// outputs concatenated in span order are byte-identical to the record
	// stream of a whole-survey run. A span cannot be combined with
	// Checkpoint or Resume: work units are retried whole, not resumed.
	SpanStart, SpanCount int

	// WrapProber, when non-nil, wraps each pair's prober before tracing.
	// The fleet runner uses it to meter probes against the coordinator's
	// per-destination-prefix budget. A wrapper must preserve probe
	// semantics — it may delay probes, never reorder, drop or alter them
	// — so tracing stays deterministic under metering.
	WrapProber func(pair Pair, p probe.Prober) probe.Prober

	// Sinks receive each pair's record, in pair order, the moment its
	// contiguous prefix of traces has completed. Nil keeps the survey a
	// pure in-memory aggregation.
	Sinks []Sink
	// Checkpoint names a progress file written atomically every
	// CheckpointEvery records (default 64), making the run resumable
	// after a kill. Empty disables checkpointing.
	Checkpoint      string
	CheckpointEvery int
	// Resume loads the checkpoint, truncates the first JSONLSink among
	// Sinks back to the durable offset, replays its records into the
	// remaining sinks, and traces only the pairs not yet completed. A
	// missing checkpoint file degrades to a fresh run.
	Resume bool
	// Progress, when non-nil, is updated as pairs complete; purely
	// observational.
	Progress *obs.Progress
}

// DefaultCheckpointEvery is the record interval between checkpoints when
// RunConfig.CheckpointEvery is zero.
const DefaultCheckpointEvery = 64

// checkpointKind tags survey checkpoints so other tools' files are
// rejected on resume.
const checkpointKind = "survey"

// job is one selected pair to trace.
type job struct {
	idx  int
	pair Pair
}

// selectJobs picks the pairs a run will trace, exactly as the serial
// walk always has. The selection is deterministic, which is what lets a
// checkpoint identify the completed set by a single count.
func selectJobs(u *Universe, cfg RunConfig) []job {
	var jobs []job
	for i, pair := range u.Pairs {
		if cfg.OnlyLB && !pair.HasLB {
			continue
		}
		if cfg.MaxPairs > 0 && len(jobs) >= cfg.MaxPairs {
			break
		}
		jobs = append(jobs, job{idx: i, pair: pair})
	}
	return jobs
}

// JobCount reports how many pairs Run would trace under cfg before any
// span restriction: the total the distributed coordinator shards into
// work units, and the Total a checkpoint validates against.
func JobCount(u *Universe, cfg RunConfig) int {
	return len(selectJobs(u, cfg))
}

// JobPairs returns the universe pair index of every job Run would trace
// (before any span restriction), in emission order. The coordinator uses
// it to validate that a shipped work unit holds exactly the records its
// span should produce.
func JobPairs(u *Universe, cfg RunConfig) []int {
	jobs := selectJobs(u, cfg)
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.idx
	}
	return out
}

// Fingerprint exposes the options hash: the fingerprint of every input
// that determines which pairs a run traces and what their records
// contain. Checkpoints embed it to refuse resuming a different
// experiment; the distributed control plane embeds it in work-unit
// claims so a runner refuses a coordinator whose survey plan differs
// from what the runner's own binary derives (version skew).
func Fingerprint(u *Universe, cfg RunConfig) uint64 {
	return optionsHash(u, cfg)
}

// optionsHash fingerprints every input that determines which pairs are
// traced and what their records contain. Worker count is deliberately
// excluded: results are identical for every worker count. Span bounds
// are excluded too: a span traces a slice of the same experiment, and
// the checkpoint machinery (the hash's consumer) refuses spans anyway.
func optionsHash(u *Universe, cfg RunConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "gen=%+v|algo=%d|seed=%d|maxttl=%d|stars=%d|stop=%v|reuse=%t|phi=%d|maxpairs=%d|onlylb=%t|rounds=%d|ppr=%d|retries=%d",
		u.Cfg, cfg.Algo, cfg.Trace.Seed, cfg.Trace.MaxTTL,
		cfg.Trace.MaxConsecutiveStars, cfg.Trace.Stop, cfg.Trace.DisableFlowReuse,
		cfg.Phi, cfg.MaxPairs, cfg.OnlyLB, cfg.Rounds, cfg.ProbesPerRound, cfg.Retries)
	if cfg.Prior != nil {
		fmt.Fprintf(h, "|prior=%d", cfg.Prior.Fingerprint())
	}
	return h.Sum64()
}

// Run traces every pair of the universe and collects the survey records.
// Pairs are traced by a pool of cfg.Workers workers; each outcome is
// aggregated — and streamed to cfg.Sinks — in pair order the moment its
// contiguous prefix of traces has completed, so the result is
// byte-identical to a serial walk while a large survey's records leave
// the process incrementally. With checkpointing enabled the run can be
// killed and resumed (cfg.Resume); the returned Result then covers only
// the pairs this call traced, while sinks (rebuilt by replaying the
// record log) cover the whole survey.
func Run(u *Universe, cfg RunConfig) (*Result, error) {
	if cfg.Phi == 0 {
		cfg.Phi = mdalite.DefaultPhi
	}
	jobs := selectJobs(u, cfg)
	if cfg.SpanStart != 0 || cfg.SpanCount != 0 {
		if cfg.Checkpoint != "" || cfg.Resume {
			return nil, fmt.Errorf("survey: a span cannot be checkpointed or resumed; work units are retried whole")
		}
		end := cfg.SpanStart + cfg.SpanCount
		if cfg.SpanCount == 0 {
			end = len(jobs)
		}
		if cfg.SpanStart < 0 || cfg.SpanCount < 0 || end > len(jobs) {
			return nil, fmt.Errorf("survey: span [%d,%d) out of range (0..%d jobs)", cfg.SpanStart, end, len(jobs))
		}
		jobs = jobs[cfg.SpanStart:end]
	}
	total := len(jobs)
	hash := optionsHash(u, cfg)

	// The first JSONL sink is the record log: the durable stream the
	// checkpoint's byte offset refers to and resume replays from.
	var log *JSONLSink
	var others []Sink
	for _, s := range cfg.Sinks {
		if j, ok := s.(*JSONLSink); ok && log == nil {
			log = j
			continue
		}
		others = append(others, s)
	}

	start := 0
	if cfg.Checkpoint != "" && cfg.Resume {
		ck, err := traceio.ReadCheckpoint(cfg.Checkpoint)
		switch {
		case err == nil:
			if err := ck.Matches(checkpointKind, hash, total); err != nil {
				return nil, fmt.Errorf("survey: %s: %w", cfg.Checkpoint, err)
			}
			start = ck.Done
			if start > 0 {
				if log == nil && len(cfg.Sinks) > 0 {
					return nil, fmt.Errorf("survey: resuming with sinks requires a JSONLSink record log")
				}
				if log != nil {
					// Prove the log matches the checkpoint BEFORE
					// truncating: a wrong -out path, or a checkpoint from
					// a run without a record log (offset 0), must not
					// destroy the file it points at.
					if err := traceio.ValidateJSONLPrefix(log.Path(), ck.Offset, start); err != nil {
						return nil, fmt.Errorf("survey: cannot resume onto %s: %w", log.Path(), err)
					}
					if err := log.resumeAt(ck.Offset); err != nil {
						return nil, err
					}
					n, err := ReplayJSONL(log.Path(), others...)
					if err != nil {
						return nil, fmt.Errorf("survey: replaying %s: %w", log.Path(), err)
					}
					if n != start {
						return nil, fmt.Errorf("survey: record log %s holds %d records, checkpoint says %d", log.Path(), n, start)
					}
				}
			}
		case os.IsNotExist(err):
			// No checkpoint yet: a fresh run that will create one.
		default:
			return nil, err
		}
	}
	if cfg.Progress != nil {
		cfg.Progress.Begin(total, start)
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}

	res := &Result{Algo: cfg.Algo, Distinct: make(map[topo.DiamondKey]DiamondRecord)}
	emitted := 0
	// A sink or checkpoint error aborts the run: pairs after it are not
	// traced.
	err := par.OrderedErr(total-start, cfg.Workers, func(k int) (TraceOutcome, error) {
		j := jobs[start+k]
		return traceOne(u, j.idx, j.pair, cfg), nil
	}, func(k int, out TraceOutcome) error {
		res.TotalProbes += out.Probes
		if len(out.Diamonds) > 0 {
			res.LBTraces++
		}
		for _, d := range out.Diamonds {
			res.Measured = append(res.Measured, d)
			if _, ok := res.Distinct[d.Key]; !ok {
				res.Distinct[d.Key] = d
			}
		}
		res.Outcomes = append(res.Outcomes, out)
		if cfg.Progress != nil {
			cfg.Progress.PairDone(out.Probes)
		}
		if len(cfg.Sinks) > 0 {
			rec := NewRecord(cfg.Algo, out)
			for _, s := range cfg.Sinks {
				if err := s.Emit(rec); err != nil {
					return err
				}
			}
			if cfg.Progress != nil {
				cfg.Progress.RecordEmitted()
			}
		}
		emitted++
		if cfg.Checkpoint != "" && emitted%every == 0 {
			return writeCheckpoint(cfg, hash, total, start+emitted, log)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if cfg.Checkpoint != "" {
		if err := writeCheckpoint(cfg, hash, total, start+emitted, log); err != nil {
			return res, err
		}
	}
	return res, nil
}

// writeCheckpoint makes the sinks durable, then atomically replaces the
// checkpoint file. Ordering matters: the record log must be fsynced
// before a checkpoint names its offset, so the offset never points past
// durable bytes.
func writeCheckpoint(cfg RunConfig, hash uint64, total, done int, log *JSONLSink) error {
	for _, s := range cfg.Sinks {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	ck := &traceio.Checkpoint{
		Kind: checkpointKind, OptionsHash: hash, Seed: cfg.Trace.Seed,
		Total: total, Done: done,
	}
	if log != nil {
		ck.Offset = log.Offset()
	}
	return ck.WriteAtomic(cfg.Checkpoint)
}

func traceOne(u *Universe, idx int, pair Pair, cfg RunConfig) TraceOutcome {
	sim := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
	if cfg.Retries > 0 {
		sim.Retries = cfg.Retries
	}
	var p probe.Prober = sim
	if cfg.WrapProber != nil {
		p = cfg.WrapProber(pair, p)
	}
	tc := cfg.Trace
	tc.Seed = nprand.IndexedSeed(cfg.Trace.Seed, idx)

	var (
		r  *mda.Result
		ml *core.Result
	)
	switch cfg.Algo {
	case AlgoMDA:
		r = mda.Trace(p, tc)
	case AlgoMDALite:
		if cfg.Prior != nil {
			if pp := cfg.Prior.Lookup(pair.Src, pair.Dst); pp != nil {
				tc.Prior = pp
			}
		}
		r = mdalite.Trace(p, tc, cfg.Phi)
	case AlgoSingleFlow:
		r = mda.TraceSingleFlow(p, tc)
	case AlgoMultilevel:
		ml = core.Trace(p, core.Options{
			Trace: tc, Phi: cfg.Phi,
			Rounds: cfg.Rounds, ProbesPerRound: cfg.ProbesPerRound,
		})
		r = ml.IP
	}
	out := TraceOutcome{
		PairIndex: idx, Pair: pair,
		Probes:  probe.TotalSent(p),
		Reached: r.ReachedDst, Switched: r.SwitchedToMDA,
		Graph: r.Graph, ML: ml,
		PriorHops: r.PriorHopsConfirmed, PriorStale: r.PriorAbandoned,
	}
	for _, d := range r.Graph.Diamonds() {
		out.Diamonds = append(out.Diamonds, recordDiamond(d, idx, cfg.Phi))
	}
	return out
}

// recordDiamond evaluates the survey metrics for one diamond.
func recordDiamond(d *topo.Diamond, pairIdx, phi int) DiamondRecord {
	rec := DiamondRecord{
		Key:         d.Key(),
		PairIndex:   pairIdx,
		Metrics:     d.ComputeMetrics(),
		MaxProbDiff: d.MaxProbabilityDifference(),
	}
	g := d.Graph()
	for _, h := range d.MeshedHopPairs() {
		rec.MeshMissProbs = append(rec.MeshMissProbs, meshMissProb(g, h, phi))
	}
	return rec
}

// meshMissProb computes Eq. (1) for the meshed hop pair (h, h+1), tracing
// from the wider hop as the MDA-Lite does.
func meshMissProb(g *topo.Graph, h, phi int) float64 {
	wi, wj := g.Width(h), g.Width(h+1)
	var degrees []int
	if wi >= wj {
		for _, v := range g.Hop(h) {
			degrees = append(degrees, g.OutDegree(v))
		}
	} else {
		for _, v := range g.Hop(h + 1) {
			degrees = append(degrees, g.InDegree(v))
		}
	}
	return fakeroute.MeshingMissProb(degrees, phi)
}

// RouterRecord captures the router-level view of one trace (Sec 5.2).
type RouterRecord struct {
	PairIndex int
	// Sets are the accepted multi-address alias sets (routers).
	Sets []alias.Set
	// Effects classifies each IP diamond per Table 3.
	Effects []core.DiamondEffect
	// WidthBefore and WidthAfter give, per IP diamond, the max width at
	// the IP level and at the router level (Figs 13/14).
	WidthBefore, WidthAfter []int
	// RouterDiamonds holds max widths of diamonds in the router graph.
	RouterDiamonds []int
}

// RouterView extracts the router-level records from a multilevel survey
// result.
func RouterView(res *Result) []RouterRecord {
	var out []RouterRecord
	for _, o := range res.Outcomes {
		if o.ML == nil {
			continue
		}
		rr := RouterRecord{PairIndex: o.PairIndex, Sets: alias.RouterSets(o.ML.Sets)}
		router := o.ML.RouterGraph
		for _, d := range o.Graph.Diamonds() {
			rr.Effects = append(rr.Effects, core.ClassifyDiamond(d, router))
			rr.WidthBefore = append(rr.WidthBefore, d.MaxWidth())
			rr.WidthAfter = append(rr.WidthAfter, routerSpanMaxWidth(router, d))
		}
		for _, rd := range router.Diamonds() {
			rr.RouterDiamonds = append(rr.RouterDiamonds, rd.MaxWidth())
		}
		out = append(out, rr)
	}
	return out
}

// routerSpanMaxWidth is the max hop width of the router graph within the
// IP diamond's hop span.
func routerSpanMaxWidth(router *topo.Graph, d *topo.Diamond) int {
	w := 1
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if n := router.Width(h); n > w {
			w = n
		}
	}
	return w
}

// AllRouterSets collects every per-trace accepted set's addresses, for
// transitive-closure aggregation (Fig 12 right).
func AllRouterSets(records []RouterRecord) [][]packet.Addr {
	var out [][]packet.Addr
	for _, r := range records {
		for _, s := range r.Sets {
			out = append(out, s.Addrs)
		}
	}
	return out
}
