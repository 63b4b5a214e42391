package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmlpt/internal/alias"
	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/core"
	"mmlpt/internal/experiments"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// surveySpec sizes one of the three single-machine survey workloads.
//
// The simulated Internet (the universe) is part of a workload's
// definition and comes from a fixed world seed; the benchmark seed
// drives the probing randomness (mda.Config.Seed: every flow
// identifier the tracers draw). Deriving the universe from the
// benchmark seed as well was measured and rejected: the generator's
// giant diamonds are rare and expensive, so the share of pairs that
// cross one — and with it pairs/s — moved by ±10 % (ip, 2000 pairs) to
// 5x (router, ~15 pairs) between seeds, far outside any usable bound.
type surveySpec struct {
	level     string // "ip" or "router"
	pairs     int    // universe size; the router level traces only its LB pairs
	worldSeed uint64
	prior     bool // re-survey seeded from a first pass's atlas (MDA-Lite)
}

func (s surveySpec) plan(seed uint64) (*survey.Universe, survey.RunConfig, error) {
	u, rc, err := experiments.PlanSurvey(s.level, experiments.SurveyConfig{Pairs: s.pairs, Seed: s.worldSeed})
	rc.Trace.Seed = seed
	return u, rc, err
}

// surveyPass is one survey pass: what survey.Run returned, how long the
// pass took with sinks closed and the snapshot saved, and the digests of
// the two output files.
type surveyPass struct {
	res                   *survey.Result
	wall                  time.Duration
	jsonlSHA, snapSHA     string
	jsonlBytes, snapBytes int64
	jsonlPath, snapPath   string
}

func (p *surveyPass) pairs() int { return len(p.res.Outcomes) }

// runSurveyPass runs the cmd/survey path once over a fresh universe:
// optional prior indexing, survey.Run with the JSONL, aggregate and
// atlas sinks, sink close, snapshot save. st is nil for an untraced
// pass.
func runSurveyPass(u *survey.Universe, rc survey.RunConfig, workers int, dir, priorAtlas string, st *surveyTrace) (*surveyPass, error) {
	p := &surveyPass{jsonlPath: filepath.Join(dir, "out.jsonl"), snapPath: filepath.Join(dir, "out.atlas")}
	_ = os.Remove(p.jsonlPath) // a pass that emits nothing must not inherit the previous file
	js := survey.NewJSONLSink(p.jsonlPath)
	as := survey.NewAtlasSink(atlas.Options{})
	rc.Workers = workers
	rc.Sinks = st.wrapSinks(js, survey.NewAggregateSink(), as)
	rc.WrapProber = st.wrapProber()

	runtime.GC() // every pass starts from a collected heap
	t0 := time.Now()
	st.beginPass(t0)
	if priorAtlas != "" {
		svc, err := serve.Open(priorAtlas, serve.Options{})
		if err != nil {
			return nil, err
		}
		ix, err := prior.FromService(svc)
		svc.Close()
		if err != nil {
			return nil, err
		}
		rc.Algo, rc.Prior = survey.AlgoMDALite, ix
		st.phase("prior.index", t0, time.Now())
	}
	res, err := survey.Run(u, rc)
	if err != nil {
		return nil, err
	}
	tClose := time.Now()
	if err := js.Close(); err != nil {
		return nil, err
	}
	if err := as.Close(); err != nil {
		return nil, err
	}
	tSave := time.Now()
	st.phase("sink.close", tClose, tSave)
	if err := as.Atlas.Save(p.snapPath); err != nil {
		return nil, err
	}
	end := time.Now()
	st.phase("atlas.save", tSave, end)
	st.endPass(end)
	p.res, p.wall = res, end.Sub(t0)

	if p.jsonlSHA, p.jsonlBytes, err = fileSHA(p.jsonlPath); err != nil {
		return nil, err
	}
	if p.snapSHA, p.snapBytes, err = fileSHA(p.snapPath); err != nil {
		return nil, err
	}
	return p, nil
}

// firstPassAtlas is the set-up of ip-resurvey-prior: the MDA survey
// whose atlas the timed re-survey is seeded from.
func (s surveySpec) firstPassAtlas(seed uint64, procs int, path string) error {
	u, rc, err := s.plan(seed)
	if err != nil {
		return err
	}
	as := survey.NewAtlasSink(atlas.Options{})
	rc.Workers, rc.Sinks = procs, []survey.Sink{as}
	if _, err := survey.Run(u, rc); err != nil {
		return err
	}
	return as.Atlas.Save(path)
}

// maxTraceHops is how many hops a trace can discover under the default
// mda.Config (TTLs 0..32). The universe holds a few longer paths; for
// those "destination not reached" is the correct outcome, as a 404 is
// for an absent address.
const maxTraceHops = 33

// failedPairs counts the pairs of a pass that are missing or that did
// not reach a destination within the trace's TTL budget.
func failedPairs(u *survey.Universe, p *surveyPass, want int) int {
	failed := want - p.pairs()
	if failed < 0 {
		failed = 0
	}
	for _, o := range p.res.Outcomes {
		if !o.Reached && u.Net.Path(o.Pair.Src, o.Pair.Dst).Graph.NumHops() <= maxTraceHops {
			failed++
		}
	}
	return failed
}

// edgeRecall scores the discovered graphs against the simulator's
// ground truth: matched true edges over true edges, summed over pairs.
func edgeRecall(u *survey.Universe, res *survey.Result) float64 {
	var d topo.DiffStats
	for _, o := range res.Outcomes {
		d.Add(topo.Diff(o.Graph, u.Net.Path(o.Pair.Src, o.Pair.Dst).Graph))
	}
	return d.EdgeRecall()
}

// aliasScore compares the accepted alias sets of a multilevel pass with
// the ground-truth routers, over the candidate groups (same-hop
// addresses) alias resolution considered.
func aliasScore(u *survey.Universe, res *survey.Result) (precision, recall float64) {
	pred := make(map[[2]packet.Addr]bool)
	truth := make(map[[2]packet.Addr]bool)
	for _, o := range res.Outcomes {
		if o.ML == nil {
			continue
		}
		for pr := range alias.AliasPairs(o.ML.Sets) {
			pred[pr] = true
		}
		for _, group := range core.CandidateGroups(o.Graph, o.Pair.Dst) {
			for pr := range alias.GroundTruthPairs(u.RouterOf, group) {
				truth[pr] = true
			}
		}
	}
	return alias.PrecisionRecall(pred, truth)
}

// runSurvey is the harness shared by ip-survey, ip-resurvey-prior and
// router-survey.
func runSurvey(c *runCtx, s surveySpec) error {
	c.rep.Load = fmt.Sprintf("closed loop, %d trace workers", c.procs)
	priorAtlas := ""

	// Set-up: derive the universe (and, for the re-survey, build the
	// first pass's atlas). Every pass needs a fresh universe — tracing
	// mutates the simulator's per-pair sessions — so plan() is timed
	// again before each timed pass and setup_s is the median of all.
	var setup []float64
	var u *survey.Universe
	var rc survey.RunConfig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if u, rc, err = s.plan(c.seed); err != nil {
			return err
		}
		if s.prior {
			priorAtlas = filepath.Join(c.scratch, "first-pass.atlas")
			if err := s.firstPassAtlas(c.seed, c.procs, priorAtlas); err != nil {
				return err
			}
		}
		setup = append(setup, seconds(time.Since(t0)))
	}
	jobs := survey.JobCount(u, rc)
	c.rep.Sizes = map[string]int{"universe_pairs": s.pairs, "traced_pairs": jobs, "world_seed": int(s.worldSeed)}
	if jobs == 0 {
		return fmt.Errorf("universe selects no pairs")
	}

	// Warm-up, which is also the correctness pass: a serial walk and a
	// parallel one must produce the same bytes, the JSONL must decode to
	// exactly one record per pair and the reopened snapshot must report
	// every pair.
	serial, err := runSurveyPass(u, rc, 1, c.scratch, priorAtlas, nil)
	if err != nil {
		return err
	}
	c.attempted(jobs, failedPairs(u, serial, jobs))
	truthU := u // outcomes of the serial pass are scored against their own universe
	if n, err := survey.ReplayJSONL(serial.jsonlPath); err != nil || n != jobs {
		c.failf("JSONL re-decodes to %d records (err %v), want %d", n, err, jobs)
	}
	if h, err := snapshotHeader(serial.snapPath); err != nil || h.Pairs != jobs {
		c.failf("reopened snapshot reports %d pairs (err %v), want %d", h.Pairs, err, jobs)
	}
	if u, rc, err = s.plan(c.seed); err != nil {
		return err
	}
	parallel, err := runSurveyPass(u, rc, c.procs, c.scratch, priorAtlas, nil)
	if err != nil {
		return err
	}
	c.attempted(jobs, failedPairs(u, parallel, jobs))
	if parallel.jsonlSHA != serial.jsonlSHA || parallel.snapSHA != serial.snapSHA {
		c.failf("outputs differ between Workers=1 and Workers=%d", c.procs)
	}

	if c.traced {
		return traceSurvey(c, s, priorAtlas, serial)
	}

	// Timed passes.
	var rate []float64
	deadline := time.Now().Add(c.seconds)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		if u, rc, err = s.plan(c.seed); err != nil {
			return err
		}
		if !s.prior {
			setup = append(setup, seconds(time.Since(t0)))
		}
		c.beginPass()
		p, err := runSurveyPass(u, rc, c.procs, c.scratch, priorAtlas, nil)
		if err != nil {
			return err
		}
		c.endPass()
		failed := failedPairs(u, p, jobs)
		if p.jsonlSHA != serial.jsonlSHA || p.snapSHA != serial.snapSHA {
			c.failf("timed pass %d produced different bytes than the warm-up", n)
			failed = jobs
		}
		c.attempted(jobs, failed)
		rate = append(rate, float64(jobs)/seconds(p.wall))
	}

	outBytes := float64(serial.jsonlBytes+serial.snapBytes) / float64(jobs)
	c.put("setup_s", setup...)
	c.put("ops_per_s", rate...)
	c.put("out_bytes_per_op", outBytes)
	c.put("pairs_per_s", rate...)
	c.put("probes_per_pair", float64(serial.res.TotalProbes)/float64(jobs))
	c.put("edge_recall", edgeRecall(truthU, serial.res))
	if s.level == "router" {
		p, r := aliasScore(truthU, serial.res)
		c.put("alias_precision", p)
		c.put("alias_recall", r)
	}
	c.put("out_bytes_per_pair", outBytes)
	return nil
}

func snapshotHeader(path string) (traceio.AtlasHeader, error) {
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		return traceio.AtlasHeader{}, err
	}
	defer r.Close()
	return r.Header(), nil
}

// ---------------------------------------------------------------------
// Tracing a survey pass from outside survey.Run.

// surveyTrace records the spans of one serial (Workers = 1) survey pass.
// With one worker, survey.Run is strictly work(i) then emit(i), so the
// hooks it offers tile each pair's interval:
//
//	pass ⊃ prior.index, pair…, collect…, sink.close, atlas.save
//	pair ⊃ probe.batch, probe.echo            (tracer = pair self time)
//	collect ⊃ sink.jsonl, sink.aggregate, sink.atlas, trace.capture
//
// A pair span opens when RunConfig.WrapProber is called for the pair
// and closes when the first sink sees its record, so it also holds the
// record build, which the layer replay measures and subtracts. All
// methods are no-ops on a nil receiver (an untraced pass).
type surveyTrace struct {
	tr      *tracer
	passID  int
	pairID  int
	collect int
	prober  probe.Prober

	// Counters taken at the same boundaries as the spans.
	traceSent, echoSent   uint64
	traceSpecs, echoSpecs int
	batches, echoBatches  int
	noReply               int
	caps                  []capPair
	records               survey.MemorySink
}

// capOp is one captured probe specification.
type capOp struct {
	addr packet.Addr // echo target; 0 for a traceroute probe
	flow uint16      // flow ID, or the echo sequence number
	ttl  uint8
}

// capPair is everything the prober boundary saw for one pair: the
// inputs the layer replay feeds back through the packet, fakeroute and
// demux layers.
type capPair struct {
	src, dst packet.Addr
	ops      []capOp
	batches  []int // sizes, in order; ops are their concatenation
}

func newSurveyTrace() *surveyTrace {
	return &surveyTrace{tr: newTracer(), passID: -1, pairID: -1, collect: -1}
}

func (st *surveyTrace) beginPass(t time.Time) {
	if st != nil {
		st.passID = st.tr.begin("pass", -1, -1, t)
	}
}

func (st *surveyTrace) endPass(t time.Time) {
	if st != nil {
		st.tr.finish(st.passID, t)
	}
}

func (st *surveyTrace) phase(name string, start, end time.Time) {
	if st != nil {
		st.tr.add(name, st.passID, -1, start, end)
	}
}

func (st *surveyTrace) wrapProber() func(survey.Pair, probe.Prober) probe.Prober {
	if st == nil {
		return nil
	}
	return func(pair survey.Pair, p probe.Prober) probe.Prober {
		st.pairID = st.tr.begin("pair", st.passID, -1, time.Now())
		st.prober = p
		st.caps = append(st.caps, capPair{src: pair.Src, dst: pair.Dst})
		return &timedProber{Prober: p, st: st}
	}
}

func (st *surveyTrace) wrapSinks(jsonl, aggregate, atlasSink survey.Sink) []survey.Sink {
	if st == nil {
		return []survey.Sink{jsonl, aggregate, atlasSink}
	}
	return []survey.Sink{
		&timedSink{Sink: jsonl, name: "sink.jsonl", st: st, first: true},
		&timedSink{Sink: aggregate, name: "sink.aggregate", st: st},
		&timedSink{Sink: atlasSink, name: "sink.atlas", st: st},
		&timedSink{Sink: &st.records, name: "trace.capture", st: st, last: true},
	}
}

// timedProber times every call across the Prober boundary and captures
// the specifications it carried.
type timedProber struct {
	probe.Prober
	st *surveyTrace
}

func (p *timedProber) observe(name string, start time.Time, replies []*packet.Reply) {
	end := time.Now()
	st := p.st
	st.tr.add(name, st.pairID, -1, start, end)
	for _, r := range replies {
		if r == nil {
			st.noReply++
		}
	}
	cp := &st.caps[len(st.caps)-1]
	cp.batches = append(cp.batches, len(replies))
}

func (p *timedProber) Probe(flowID uint16, ttl int) *packet.Reply {
	t0 := time.Now()
	r := p.Prober.Probe(flowID, ttl)
	p.captureTrace([]probe.Spec{{FlowID: flowID, TTL: ttl}})
	p.observe("probe.batch", t0, []*packet.Reply{r})
	return r
}

func (p *timedProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	t0 := time.Now()
	r := p.Prober.ProbeBatch(specs)
	p.captureTrace(specs)
	p.observe("probe.batch", t0, r)
	return r
}

func (p *timedProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	t0 := time.Now()
	r := p.Prober.Echo(addr, seq)
	p.captureEcho([]probe.EchoSpec{{Addr: addr, Seq: seq}})
	p.observe("probe.echo", t0, []*packet.Reply{r})
	return r
}

func (p *timedProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	t0 := time.Now()
	r := p.Prober.EchoBatch(specs)
	p.captureEcho(specs)
	p.observe("probe.echo", t0, r)
	return r
}

func (p *timedProber) captureTrace(specs []probe.Spec) {
	st := p.st
	cp := &st.caps[len(st.caps)-1]
	for _, sp := range specs {
		cp.ops = append(cp.ops, capOp{flow: sp.FlowID, ttl: uint8(sp.TTL)})
	}
	st.traceSpecs += len(specs)
	st.batches++
}

func (p *timedProber) captureEcho(specs []probe.EchoSpec) {
	st := p.st
	cp := &st.caps[len(st.caps)-1]
	for _, sp := range specs {
		cp.ops = append(cp.ops, capOp{addr: sp.Addr, flow: sp.Seq})
	}
	st.echoSpecs += len(specs)
	st.echoBatches++
}

// timedSink times one sink's Emit. The first sink of the list closes
// the pair span and opens the collect span; the last closes it.
type timedSink struct {
	survey.Sink
	name        string
	st          *surveyTrace
	first, last bool
}

func (s *timedSink) Emit(rec *traceio.SurveyRecord) error {
	st := s.st
	start := time.Now()
	if s.first {
		st.tr.finish(st.pairID, start)
		st.tr.setOp(st.pairID, rec.PairIndex)
		t, e := st.prober.Sent()
		st.traceSent += t
		st.echoSent += e
		st.collect = st.tr.begin("collect", st.passID, rec.PairIndex, start)
	}
	err := s.Sink.Emit(rec)
	end := time.Now()
	st.tr.add(s.name, st.collect, rec.PairIndex, start, end)
	if s.last {
		st.tr.finish(st.collect, end)
	}
	return err
}
