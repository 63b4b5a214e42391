package main

import (
	"fmt"
	"runtime"
	"time"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// echoID is the ICMP echo identifier probe.SimProber stamps on direct
// probes; the replay uses the same so the demux accepts the replies.
const echoID = 0x4d4c

// sinkRecord keeps replayed results reachable so the compiler cannot
// drop the calls being timed.
var sinkRecord *traceio.SurveyRecord

// traceSurvey is the traced run of a survey workload. Per repetition it
// runs an untraced serial pass, an untraced parallel pass and a traced
// serial pass (their ratios are the tracing overhead and the worker
// speed-up); the last traced pass's spans give the per-layer self
// times, and a layer replay pushes the captured probes and records back
// through each layer's public functions in bulk for the per-probe and
// per-record costs too small to time call by call.
func traceSurvey(c *runCtx, s surveySpec, priorAtlas string, warm *surveyPass) error {
	jobs := warm.pairs()
	var serialWall, parallelWall, tracedWall, planS, allocs, allocBytes []float64
	var st *surveyTrace
	var traced *surveyPass
	var tracedU *survey.Universe
	var rounds int
	deadline := time.Now().Add(c.seconds / 2)
	for rep := 0; rep < 1 || (rep < 3 && time.Now().Before(deadline)); rep++ {
		t0 := time.Now()
		u, rc, err := s.plan(c.seed)
		if err != nil {
			return err
		}
		planS = append(planS, seconds(time.Since(t0)))
		m0, b0 := mallocs()
		p, err := runSurveyPass(u, rc, 1, c.scratch, priorAtlas, nil)
		if err != nil {
			return err
		}
		m1, b1 := mallocs()
		serialWall = append(serialWall, seconds(p.wall))
		allocs = append(allocs, float64(m1-m0)/float64(jobs))
		allocBytes = append(allocBytes, float64(b1-b0)/float64(jobs))

		if u, rc, err = s.plan(c.seed); err != nil {
			return err
		}
		if p, err = runSurveyPass(u, rc, c.procs, c.scratch, priorAtlas, nil); err != nil {
			return err
		}
		parallelWall = append(parallelWall, seconds(p.wall))

		if u, rc, err = s.plan(c.seed); err != nil {
			return err
		}
		st = newSurveyTrace()
		if traced, err = runSurveyPass(u, rc, 1, c.scratch, priorAtlas, st); err != nil {
			return err
		}
		tracedWall = append(tracedWall, seconds(traced.wall))
		tracedU, rounds = u, rc.Rounds
	}
	c.attempted(jobs, failedPairs(tracedU, traced, jobs))
	if traced.jsonlSHA != warm.jsonlSHA || traced.snapSHA != warm.snapSHA {
		c.failf("tracing changed the outputs of the pass")
	}
	c.tr = st.tr

	tot := st.tr.totals()
	passDur := tot["pass"].Total
	probeBusy := tot["probe.batch"].Total + tot["probe.echo"].Total
	sent := float64(st.traceSent + st.echoSent)
	specs := float64(st.traceSpecs + st.echoSpecs)
	calls := float64(st.batches + st.echoBatches)
	coverage := 1 - ratio(seconds(tot["pass"].Self), seconds(passDur))

	// Layer replay on a fresh universe of the same seeds.
	u2, _, err := s.plan(c.seed)
	if err != nil {
		return err
	}
	rp := replayProbeLayers(u2, st.caps, st.tr)
	algo := traced.res.Algo
	recordBuild := recordBuildTime(algo, traced.res.Outcomes, st.tr)
	tDec := time.Now()
	if n, err := survey.ReplayJSONL(traced.jsonlPath); err != nil || n != jobs {
		c.failf("replay: JSONL decodes to %d records (err %v), want %d", n, err, jobs)
	}
	decode := time.Since(tDec)
	st.tr.add("replay.traceio.decode", -1, -1, tDec, tDec.Add(decode))
	openMS, shardMS, hdr, err := snapshotReadCosts(traced.snapPath)
	if err != nil {
		return err
	}

	tracerSelf := tot["pair"].Self - recordBuild
	if tracerSelf < 0 {
		tracerSelf = 0
	}
	switched, stale, priorHops, hops := 0, 0, 0, 0
	var aliasProbes uint64
	for _, o := range traced.res.Outcomes {
		if o.Switched {
			switched++
		}
		if o.PriorStale {
			stale++
		}
		priorHops += o.PriorHops
		hops += o.Graph.NumHops()
		if o.ML != nil {
			aliasProbes += o.ML.AliasProbes
		}
	}

	// The tracer layer the pass ran: MDA, MDA-Lite (prior-seeded) or
	// the multilevel tracer, whose IP part is an MDA-Lite trace.
	switch {
	case s.level == "router":
		// alias self time = multilevel tracer − an identical-seed
		// MDA-Lite trace of the same pairs, probes excluded on both
		// sides.
		u3, rc3, err := s.plan(c.seed)
		if err != nil {
			return err
		}
		rc3.Algo = survey.AlgoMDALite
		lite := newSurveyTrace()
		lp, err := runSurveyPass(u3, rc3, 1, c.scratch, "", lite)
		if err != nil {
			return err
		}
		liteSelf := lite.tr.totals()["pair"].Self - recordBuildTime(survey.AlgoMDALite, lp.res.Outcomes, nil)
		if liteSelf < 0 {
			liteSelf = 0
		}
		liteSent := float64(lite.traceSent + lite.echoSent)
		liteSwitched := 0
		for _, o := range lp.res.Outcomes {
			if o.Switched {
				liteSwitched++
			}
		}
		aliasSelf := tracerSelf - liteSelf
		c.put("mdalite.self_s", seconds(liteSelf))
		c.put("mdalite.self_ns_per_probe", ratio(float64(liteSelf.Nanoseconds()), liteSent))
		c.put("mdalite.switched_share", ratio(float64(liteSwitched), float64(jobs)))
		c.put("alias.self_s", seconds(aliasSelf))
		c.put("alias.self_ms_per_pair", ratio(seconds(aliasSelf)*1e3, float64(jobs)))
		c.put("alias.probe_share", ratio(float64(aliasProbes), float64(traced.res.TotalProbes)))
		c.put("alias.rounds", float64(rounds))
		p, r := aliasScore(tracedU, traced.res)
		c.put("alias.precision", p)
		c.put("alias.recall", r)
	case s.prior:
		c.put("mdalite.self_s", seconds(tracerSelf))
		c.put("mdalite.self_ns_per_probe", ratio(float64(tracerSelf.Nanoseconds()), sent))
		c.put("mdalite.switched_share", ratio(float64(switched), float64(jobs)))
		c.put("prior.index_s", seconds(tot["prior.index"].Total))
		c.put("prior.confirmed_hop_share", ratio(float64(priorHops), float64(hops)))
		c.put("prior.stale_share", ratio(float64(stale), float64(jobs)))
		openS, scanS, err := serveBulkCosts(priorAtlas)
		if err != nil {
			return err
		}
		c.put("serve.open_ms", openS*1e3)
		c.put("serve.bulk_scan_s", scanS)
	default:
		c.put("mda.self_s", seconds(tracerSelf))
		c.put("mda.self_ns_per_probe", ratio(float64(tracerSelf.Nanoseconds()), sent))
		c.put("mda.switched_share", ratio(float64(switched), float64(jobs)))
	}

	c.put("packet.encode_ns_per_probe", ratio(float64(rp.encode.Nanoseconds()), float64(rp.probes)))
	c.put("packet.parse_ns_per_reply", ratio(float64(rp.parse.Nanoseconds()), float64(rp.replies)))
	c.put("packet.allocs_per_probe", rp.codecAllocs)
	c.put("fakeroute.handle_ns_per_probe", ratio(float64(rp.handle.Nanoseconds()), float64(rp.probes)))
	c.put("fakeroute.reply_share", ratio(float64(rp.replies), float64(rp.probes)))
	c.put("fakeroute.allocs_per_probe", rp.handleAllocs)

	c.put("probe.busy_s", seconds(probeBusy))
	c.put("probe.roundtrip_ns_per_probe", ratio(float64(probeBusy.Nanoseconds()), sent))
	c.put("probe.trace_probes", float64(st.traceSent))
	c.put("probe.echo_probes", float64(st.echoSent))
	c.put("probe.batches", calls)
	c.put("probe.mean_batch", ratio(specs, calls))
	c.put("probe.noreply_share", ratio(float64(st.noReply), specs))
	c.put("probe.demux_ns_per_reply", ratio(float64(rp.demux.Nanoseconds()), float64(rp.replies)))

	collectBusy := tot["collect"].Total + recordBuild
	c.put("survey.generate_s", planS...)
	c.put("survey.collect_busy_s", seconds(collectBusy))
	c.put("survey.collect_share", ratio(seconds(collectBusy), seconds(passDur)))
	c.put("survey.record_build_ns_per_pair", ratio(float64(recordBuild.Nanoseconds()), float64(jobs)))
	c.put("survey.worker_speedup", ratio(median(serialWall), median(parallelWall)))
	c.put("survey.allocs_per_pair", allocs...)
	c.put("survey.alloc_bytes_per_pair", allocBytes...)
	c.put("survey.probes_per_pair", float64(traced.res.TotalProbes)/float64(jobs))
	c.put("survey.edge_recall", edgeRecall(tracedU, traced.res))

	jsonlEmit, atlasEmit, save := tot["sink.jsonl"].Total, tot["sink.atlas"].Total, tot["atlas.save"].Total
	c.put("traceio.record_encode_ns_per_record", ratio(float64(jsonlEmit.Nanoseconds()), float64(jobs)))
	c.put("traceio.record_decode_ns_per_record", ratio(float64(decode.Nanoseconds()), float64(jobs)))
	c.put("traceio.jsonl_bytes_per_pair", float64(traced.jsonlBytes)/float64(jobs))
	c.put("traceio.atlas_open_ms", openMS)
	c.put("traceio.shard_decode_ms", shardMS)

	c.put("atlas.ingest_ns_per_record", ratio(float64(atlasEmit.Nanoseconds()), float64(jobs)))
	c.put("atlas.ingest_records_per_s", ratio(float64(jobs), seconds(atlasEmit)))
	c.put("atlas.save_s", seconds(save))
	c.put("atlas.save_mb_per_s", ratio(float64(traced.snapBytes)/1e6, seconds(save)))
	c.put("atlas.snapshot_bytes_per_addr", ratio(float64(traced.snapBytes), float64(hdr.Nodes)))

	overhead := ratio(median(tracedWall), median(serialWall)) - 1
	c.put("trace.overhead_share", overhead)
	c.put("trace.coverage_share", coverage)
	c.put("trace.spans", float64(len(st.tr.spans)))

	// The cost map of one traced pair (ROADMAP item 1): where a pair's
	// time goes, stage by stage, in the order a probe and then a record
	// travel.
	perPair := func(d time.Duration) float64 { return ratio(float64(d.Microseconds()), float64(jobs)) }
	perProbe := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), sent) }
	replayPerProbe := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	c.rep.CostMap = []string{
		fmt.Sprintf("cost map of one traced pair (%s, %d pairs, %.0f probes/pair, serial traced pass %.3fs, %.1f%% of it inside a layer span)",
			algo, jobs, ratio(sent, float64(jobs)), seconds(passDur), coverage*100),
		fmt.Sprintf("  %-34s %9.1f ns/probe   (bulk replay)", "probe encode (packet)", replayPerProbe(rp.encode, rp.probes)),
		fmt.Sprintf("  %-34s %9.1f ns/probe   (bulk replay)", "fakeroute walk (fakeroute)", replayPerProbe(rp.handle, rp.probes)),
		fmt.Sprintf("  %-34s %9.1f ns/reply   (bulk replay)", "reply parse (packet)", replayPerProbe(rp.parse, rp.replies)),
		fmt.Sprintf("  %-34s %9.1f ns/reply   (bulk replay; live path only)", "reply demux (probe)", replayPerProbe(rp.demux, rp.replies)),
		fmt.Sprintf("  %-34s %9.1f ns/probe  %9.1f us/pair", "probe round trip (probe spans)", perProbe(probeBusy), perPair(probeBusy)),
		fmt.Sprintf("  %-34s %9.1f ns/probe  %9.1f us/pair", "session bookkeeping (tracer self)", perProbe(tracerSelf), perPair(tracerSelf)),
		fmt.Sprintf("  %-34s %20s  %9.1f us/pair   (bulk replay)", "record build (survey)", "", perPair(recordBuild)),
		fmt.Sprintf("  %-34s %20s  %9.1f us/pair", "sink encode (traceio JSONL)", "", perPair(jsonlEmit)),
		fmt.Sprintf("  %-34s %20s  %9.1f us/pair", "atlas ingest (atlas)", "", perPair(atlasEmit)),
		fmt.Sprintf("  %-34s %20s  %9.1f us/pair", "snapshot encode (atlas.Save)", "", perPair(save)),
	}
	return nil
}

// replayCosts are the bulk-timed stages of the layer replay.
type replayCosts struct {
	probes, replies           int
	encode, handle, parse     time.Duration
	demux                     time.Duration
	codecAllocs, handleAllocs float64 // heap allocations per probe
}

// replayProbeLayers feeds every captured probe specification back
// through the layers under the Prober boundary, one stage at a time over
// all pairs: packet encode (Probe.AppendTo / EchoProbe.AppendTo), the
// simulator (Session.HandleProbe over the wire bytes, on a fresh
// universe), reply parse (ParseReplyInto) and reply attribution
// (probe.Demux, the live path's syscall-free half). One span per stage,
// with the count attached: the per-call costs are far below a timer's
// resolution.
func replayProbeLayers(u *survey.Universe, caps []capPair, tr *tracer) replayCosts {
	var rc replayCosts
	for _, cp := range caps {
		rc.probes += len(cp.ops)
	}
	wire := make([]byte, 0, rc.probes*packet.ProbeLen)
	woff := make([]int, rc.probes+1)
	raw := make([]byte, 0, rc.probes*128)
	roff := make([]int, 1, rc.probes+1)
	replyOf := make([]int32, rc.probes)

	runtime.GC()
	m0, _ := mallocs()
	t0 := time.Now()
	k := 0
	for i := range caps {
		cp := &caps[i]
		serial := uint16(0)
		for _, op := range cp.ops {
			if serial++; serial == 0 {
				serial = 1
			}
			if op.addr != 0 {
				ep := packet.EchoProbe{Src: cp.src, Dst: op.addr, ID: echoID, Seq: op.flow, IPID: op.flow}
				wire = ep.AppendTo(wire)
			} else {
				pr := packet.Probe{Src: cp.src, Dst: cp.dst, FlowID: op.flow, TTL: op.ttl, Checksum: serial}
				wire = pr.AppendTo(wire)
			}
			k++
			woff[k] = len(wire)
		}
	}
	t1 := time.Now()
	m1, _ := mallocs()
	rc.encode = t1.Sub(t0)
	tr.add("replay.packet.encode", -1, rc.probes, t0, t1)

	k = 0
	for i := range caps {
		cp := &caps[i]
		sess := u.Net.SessionFor(cp.src, cp.dst)
		for range cp.ops {
			replyOf[k] = -1
			if b := sess.HandleProbe(wire[woff[k]:woff[k+1]]); b != nil {
				replyOf[k] = int32(rc.replies)
				raw = append(raw, b...)
				roff = append(roff, len(raw))
				rc.replies++
			}
			k++
		}
	}
	t2 := time.Now()
	m2, _ := mallocs()
	rc.handle = t2.Sub(t1)
	tr.add("replay.fakeroute.handle", -1, rc.probes, t1, t2)

	replies := make([]packet.Reply, rc.replies)
	m3, _ := mallocs()
	t3 := time.Now()
	for i := range replies {
		_ = packet.ParseReplyInto(&replies[i], raw[roff[i]:roff[i+1]])
	}
	t4 := time.Now()
	m4, _ := mallocs()
	rc.parse = t4.Sub(t3)
	tr.add("replay.packet.parse", -1, rc.replies, t3, t4)

	var d probe.Demux
	k = 0
	for i := range caps {
		cp := &caps[i]
		serial := uint16(0)
		at := 0
		for _, n := range cp.batches {
			d.BeginWave(cp.dst, echoID)
			for j, op := range cp.ops[at : at+n] {
				if serial++; serial == 0 {
					serial = 1
				}
				if op.addr != 0 {
					d.AddEcho(op.addr, op.flow, j)
				} else {
					d.AddTrace(serial, j)
				}
			}
			for j := 0; j < n; j++ {
				if ri := replyOf[k+j]; ri >= 0 {
					d.Match(&replies[ri])
				}
			}
			at += n
			k += n
		}
	}
	t5 := time.Now()
	rc.demux = t5.Sub(t4)
	tr.add("replay.probe.demux", -1, rc.replies, t4, t5)

	rc.codecAllocs = ratio(float64(m1-m0)+float64(m4-m3), float64(rc.probes))
	rc.handleAllocs = ratio(float64(m2-m1), float64(rc.probes))
	return rc
}

// recordBuildTime replays survey.NewRecord over a pass's outcomes: the
// collector's record build, which from outside survey.Run is only
// visible as part of the pair span.
func recordBuildTime(algo survey.Algo, outcomes []survey.TraceOutcome, tr *tracer) time.Duration {
	t0 := time.Now()
	for _, o := range outcomes {
		sinkRecord = survey.NewRecord(algo, o)
	}
	end := time.Now()
	tr.add("replay.survey.record_build", -1, len(outcomes), t0, end)
	return end.Sub(t0)
}

// snapshotReadCosts times the random-access reader over a snapshot:
// OpenAtlasFile (header, index, pair section) and the mean decode of a
// shard block.
func snapshotReadCosts(path string) (openMS, shardMS float64, hdr traceio.AtlasHeader, err error) {
	t0 := time.Now()
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		return 0, 0, hdr, err
	}
	defer r.Close()
	openMS = seconds(time.Since(t0)) * 1e3
	t1 := time.Now()
	n := r.NumShards()
	for i := 0; i < n; i++ {
		if _, err := r.ReadShard(i); err != nil {
			return 0, 0, hdr, err
		}
	}
	shardMS = ratio(seconds(time.Since(t1))*1e3, float64(n))
	return openMS, shardMS, r.Header(), nil
}

// serveBulkCosts times serve.Open and one full ForEachNode scan, the
// two serve-layer calls prior.FromService makes.
func serveBulkCosts(path string) (openS, scanS float64, err error) {
	t0 := time.Now()
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close()
	openS = seconds(time.Since(t0))
	t1 := time.Now()
	err = svc.ForEachNode(func(*traceio.AtlasNodeV2) error { return nil })
	return openS, seconds(time.Since(t1)), err
}
