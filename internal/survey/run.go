package survey

import (
	"fmt"
	"hash/fnv"

	"mmlpt/internal/core"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/progress"
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

// TraceOutcome is the result of tracing one pair.
type TraceOutcome struct {
	PairIndex int
	Pair      Pair
	Probes    uint64
	Reached   bool
	Switched  bool
	Graph     *topo.Graph
	// Diamonds carries the survey metrics of each diamond, in hop order.
	Diamonds []traceio.SurveyDiamond
	// PriorHops counts hops confirmed from an atlas prior; PriorStale
	// marks a trace whose prior mismatched the live route.
	PriorHops  int
	PriorStale bool
	// ML is set for multilevel runs.
	ML *core.Result
}

// Result holds the outcomes this call of Run traced. The survey's figures,
// tables and summary are not read from it but from a RecordAggregate fed
// by the record stream, which a resumed run rebuilds from its shards.
type Result struct {
	Algo     Algo
	Outcomes []TraceOutcome
	// TotalProbes across the outcomes.
	TotalProbes uint64
}

// RunConfig controls a survey run.
type RunConfig struct {
	Algo Algo
	// Trace is the base trace configuration (stopping points etc.).
	Trace mda.Config
	// Phi is the MDA-Lite meshing budget.
	Phi int
	// OnlyLB restricts to pairs whose ground truth has a load balancer.
	OnlyLB bool
	// Rounds is the alias-resolution round count (multilevel runs only).
	Rounds int
	// Retries per probe (0 = prober default).
	Retries int
	// Prior seeds MDA-Lite traces from an atlas-derived index: each pair
	// with an indexed prior probes only to its confirmation budget and
	// falls back to full discovery on mismatch. Nil traces unseeded. The
	// index's fingerprint is part of the options hash, so a resumed
	// survey refuses a manifest written under a different prior.
	Prior *prior.Index
	// Workers is how many pairs are traced concurrently. Zero selects
	// GOMAXPROCS; one forces a serial walk. Per-pair seeds and per-trace
	// network sessions make every trace independent, so the aggregated
	// result is identical for every worker count.
	Workers int

	// SpanStart/SpanCount restrict the run to the contiguous slice
	// [SpanStart, SpanStart+SpanCount) of the deterministic selected-job
	// list — the same list a fleet manifest's units partition. SpanCount
	// zero traces from SpanStart to the end. The distributed control
	// plane (internal/dispatch) traces one such span per work-unit claim,
	// and a resumed single-machine survey the span after its last durable
	// unit; records keep their global pair indices and derived seeds, so
	// unit outputs concatenated in span order are byte-identical to the
	// record stream of a whole-survey run.
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
	// Progress, when non-nil, is updated as pairs complete; purely
	// observational.
	Progress *progress.Survey
	// probesPerRound overrides core's alias probes per round: a test seam.
	probesPerRound int
}

// recordSchema names traceio.SurveyRecord's layout. Through the options
// hash it makes manifests and fleet specs of another layout mismatch
// instead of merging records the decoder would misread as empty.
const recordSchema = "hops+succ"

// job is one selected pair to trace.
type job struct {
	idx  int
	pair Pair
}

// selectJobs picks the pairs a run will trace, exactly as the serial
// walk always has. The selection is deterministic, which is what lets a
// manifest identify each unit's jobs by a span of positions.
func selectJobs(u *Universe, cfg RunConfig) []job {
	var jobs []job
	for i, pair := range u.Pairs {
		if cfg.OnlyLB && !pair.HasLB {
			continue
		}
		jobs = append(jobs, job{idx: i, pair: pair})
	}
	return jobs
}

// JobCount reports how many pairs Run would trace under cfg before any
// span restriction: the total the distributed coordinator shards into
// work units, and the Total a manifest validates against.
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
// contain. Manifests embed it to refuse resuming a different
// experiment; the distributed control plane embeds it in work-unit
// claims so a runner refuses a coordinator whose survey plan differs
// from what the runner's own binary derives (version skew).
func Fingerprint(u *Universe, cfg RunConfig) uint64 {
	return optionsHash(u, cfg)
}

// optionsHash fingerprints every input that determines which pairs are
// traced and what their records contain. Worker count is deliberately
// excluded: results are identical for every worker count. Span bounds
// are excluded too: a span traces a slice of the same experiment.
func optionsHash(u *Universe, cfg RunConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "gen=%+v|algo=%d|seed=%d|maxttl=%d|stop=%v|phi=%d|onlylb=%t|rounds=%d|ppr=%d|retries=%d|record=%s",
		u.Cfg, cfg.Algo, cfg.Trace.Seed, cfg.Trace.MaxTTL, cfg.Trace.Stop,
		cfg.Phi, cfg.OnlyLB, cfg.Rounds, cfg.probesPerRound, cfg.Retries, recordSchema)
	if cfg.Prior != nil {
		fmt.Fprintf(h, "|prior=%d", cfg.Prior.Fingerprint())
	}
	return h.Sum64()
}

// Run traces every pair of the universe (or of the span) and collects
// the survey records. Pairs are traced by a pool of cfg.Workers workers;
// each outcome is aggregated — and streamed to cfg.Sinks — in pair order
// the moment its contiguous prefix of traces has completed, so the result
// is byte-identical to a serial walk while a large survey's records leave
// the process incrementally.
func Run(u *Universe, cfg RunConfig) (*Result, error) {
	if cfg.Phi == 0 {
		cfg.Phi = mda.DefaultPhi
	}
	jobs := selectJobs(u, cfg)
	if cfg.SpanStart != 0 || cfg.SpanCount != 0 {
		n := cfg.SpanCount
		if n == 0 {
			n = len(jobs) - cfg.SpanStart
		}
		// n > len-start, not start+n > len: the sum can overflow.
		if cfg.SpanStart < 0 || n < 0 || n > len(jobs)-cfg.SpanStart {
			return nil, fmt.Errorf("survey: span start %d count %d out of range (0..%d jobs)", cfg.SpanStart, cfg.SpanCount, len(jobs))
		}
		jobs = jobs[cfg.SpanStart : cfg.SpanStart+n]
	}
	if cfg.Progress != nil {
		cfg.Progress.Begin(len(jobs))
	}

	res := &Result{Algo: cfg.Algo}
	// A sink error aborts the run: pairs after it are not traced.
	err := par.OrderedErr(len(jobs), cfg.Workers, func(k int) (TraceOutcome, error) {
		return traceOne(u, jobs[k].idx, jobs[k].pair, cfg), nil
	}, func(k int, out TraceOutcome) error {
		res.TotalProbes += out.Probes
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
		}
		return nil
	})
	return res, err
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
		r = mda.TraceLite(p, tc, cfg.Phi)
	case AlgoSingleFlow:
		r = mda.TraceSingleFlow(p, tc)
	case AlgoMultilevel:
		ml = core.Trace(p, core.Options{
			Trace: tc, Phi: cfg.Phi,
			Rounds: cfg.Rounds, ProbesPerRound: cfg.probesPerRound,
		})
		r = ml.IP
	}
	// The pair is traced once: its simulator state ends with the trace,
	// so a re-trace of the pair (a re-leased fleet unit) starts as on a
	// fresh universe.
	u.Net.EndSession(pair.Src, pair.Dst)
	out := TraceOutcome{
		PairIndex: idx, Pair: pair,
		Probes:  probe.TotalSent(p),
		Reached: r.ReachedDst, Switched: r.SwitchedToMDA,
		Graph: r.Graph, ML: ml,
		PriorHops: r.PriorHopsConfirmed, PriorStale: r.PriorAbandoned,
	}
	for _, d := range r.Graph.Diamonds() {
		out.Diamonds = append(out.Diamonds, surveyDiamond(d, cfg.Phi))
	}
	return out
}

// surveyDiamond evaluates the survey metrics for one diamond.
func surveyDiamond(d *topo.Diamond, phi int) traceio.SurveyDiamond {
	m := d.ComputeMetrics()
	sd := traceio.SurveyDiamond{
		Div: addrLabel(d.DivAddr), Conv: addrLabel(d.ConvAddr),
		MaxLength: m.MaxLength, MaxWidth: m.MaxWidth,
		Asymmetry: m.MaxWidthAsymmetry, Meshed: m.Meshed,
		MeshedRatio: m.RatioMeshedHops, Uniform: m.Uniform,
		MaxProbDiff: d.MaxProbabilityDifference(),
	}
	g := d.Graph()
	for _, h := range d.MeshedHopPairs() {
		sd.MeshMissProbs = append(sd.MeshMissProbs, meshMissProb(g, h, phi))
	}
	return sd
}

func addrLabel(a packet.Addr) string {
	if a == topo.StarAddr {
		return "*"
	}
	return a.String()
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
