package alias

import (
	"sort"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/nprand"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

var (
	testSrc = packet.MustParseAddr("192.0.2.1")
	testDst = packet.MustParseAddr("198.51.100.77")
)

func TestMonotonicPlain(t *testing.T) {
	s := []obs.Sample{{Seq: 1, IPID: 10}, {Seq: 2, IPID: 11}, {Seq: 3, IPID: 40}}
	if !Monotonic(s) {
		t.Fatal("increasing series must be monotonic")
	}
}

func TestMonotonicWraparound(t *testing.T) {
	s := []obs.Sample{{Seq: 1, IPID: 65500}, {Seq: 2, IPID: 65530}, {Seq: 3, IPID: 12}}
	if !Monotonic(s) {
		t.Fatal("wraparound must be tolerated")
	}
}

func TestMonotonicViolation(t *testing.T) {
	s := []obs.Sample{{Seq: 1, IPID: 100}, {Seq: 2, IPID: 50}, {Seq: 3, IPID: 120}}
	if Monotonic(s) {
		t.Fatal("out-of-sequence identifier must violate")
	}
	dup := []obs.Sample{{Seq: 1, IPID: 7}, {Seq: 2, IPID: 7}}
	if Monotonic(dup) {
		t.Fatal("repeated identifier must violate")
	}
}

func TestSeriesUsableCauses(t *testing.T) {
	cases := []struct {
		name    string
		samples []obs.Sample
		direct  bool
		cause   UnableCause
	}{
		{"empty", nil, false, CauseUnresponsive},
		{"short", []obs.Sample{{IPID: 1}, {IPID: 2}}, false, CauseTooFew},
		{"constant", []obs.Sample{{Seq: 1}, {Seq: 2}, {Seq: 3}}, false, CauseConstant},
		{"nonmono", []obs.Sample{{Seq: 1, IPID: 9}, {Seq: 2, IPID: 3}, {Seq: 3, IPID: 7}}, false, CauseNonMonotonic},
		{"copy", []obs.Sample{
			{Seq: 1, IPID: 5, SentID: 5}, {Seq: 2, IPID: 9, SentID: 9}, {Seq: 3, IPID: 11, SentID: 11},
		}, true, CauseCopyProbe},
	}
	for _, c := range cases {
		ok, cause := SeriesUsable(c.samples, c.direct)
		if ok || cause != c.cause {
			t.Errorf("%s: got ok=%v cause=%v, want %v", c.name, ok, cause, c.cause)
		}
	}
	good := []obs.Sample{{Seq: 1, IPID: 4}, {Seq: 2, IPID: 6}, {Seq: 3, IPID: 9}}
	if ok, _ := SeriesUsable(good, false); !ok {
		t.Error("healthy series must be usable")
	}
}

// pairVerdict evaluates one pair the way Partition and ClassifySet do.
func pairVerdict(r *Resolver, a, b packet.Addr) Evidence {
	fs := r.factsOfAll([]packet.Addr{a, b})
	return pairEvidence(fs[0], fs[1])
}

// mergeSamples interleaves two series by sequence number: the merge that
// MBTVerdict walks without building it.
func mergeSamples(a, b []obs.Sample) []obs.Sample {
	out := make([]obs.Sample, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// oracleMBT is the Monotonic Bounds Test over the built, sorted merge.
func oracleMBT(a, b []obs.Sample) Outcome {
	if len(a) == 0 || len(b) == 0 {
		return Unable
	}
	if a[len(a)-1].Seq < b[0].Seq || b[len(b)-1].Seq < a[0].Seq {
		return Unable
	}
	if Monotonic(mergeSamples(a, b)) {
		return Accepted
	}
	return Rejected
}

// series builds a sample series from (Seq, IPID) pairs.
func series(seqID ...int) []obs.Sample {
	out := make([]obs.Sample, 0, len(seqID)/2)
	for i := 0; i < len(seqID); i += 2 {
		out = append(out, obs.Sample{Seq: uint64(seqID[i]), IPID: uint16(seqID[i+1])})
	}
	return out
}

func TestMBTVerdictCases(t *testing.T) {
	cases := []struct {
		name string
		a, b []obs.Sample
		want Outcome
	}{
		{"interleaved", series(1, 10, 3, 12, 5, 14), series(2, 11, 4, 13), Accepted},
		{"interleaved/out-of-sequence", series(1, 10, 3, 12, 5, 14), series(2, 11, 4, 15), Rejected},
		{"nested", series(1, 10, 10, 19), series(4, 13, 5, 14, 6, 15), Accepted},
		{"nested/out-of-sequence", series(1, 10, 10, 19), series(4, 13, 5, 20, 6, 21), Rejected},
		{"disjoint", series(1, 10, 2, 11), series(3, 12, 4, 13), Unable},
		{"wrap", series(1, 0xfffe, 3, 1), series(2, 0xffff, 4, 2), Accepted},
		{"wrap/out-of-sequence", series(1, 0xfffe, 3, 1), series(2, 2, 4, 3), Rejected},
		{"equal across series", series(1, 10, 3, 12), series(2, 12, 4, 13), Rejected},
		{"step 2^15-1", series(1, 0, 3, 0x8000), series(2, 0x7fff), Accepted},
		{"step 2^15", series(1, 0, 3, 0x8001), series(2, 0x8000), Rejected},
		{"length 1 inside", series(2, 5), series(1, 4, 3, 6), Accepted},
		{"length 1 outside", series(2, 5), series(1, 4), Unable},
		{"empty", nil, series(1, 4, 3, 6), Unable},
	}
	for _, c := range cases {
		for _, got := range []Outcome{MBTVerdict(c.a, c.b), MBTVerdict(c.b, c.a), oracleMBT(c.a, c.b)} {
			if got != c.want {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

// TestMBTVerdictMatchesSortedMerge checks the two-cursor MBT against the
// sorted merge it replaced, on seeded random pairs of Seq-ordered series
// with distinct Seqs. The pairs cover interleaved, nested and disjoint
// windows, series of one to three samples, IDs wrapping through 0xFFFF,
// equal IDs across the two series and steps of exactly 2^15-1 and 2^15;
// the tallies at the end check that every such case occurred.
func TestMBTVerdictMatchesSortedMerge(t *testing.T) {
	const (
		interleaved = iota
		nested
		disjoint
	)
	rng := nprand.New(31)
	var byLayout [3][3]int // layout × outcome
	var short [3]int       // outcomes with a series of at most 3 samples
	var wrapAccepted, maxStepAccepted, halfStepRejected, equalCrossRejected int
	for n := 0; n < 20000; n++ {
		la, lb := 1+rng.Intn(3), 1+rng.Intn(3)
		if n%2 == 0 {
			la, lb = 1+rng.Intn(40), 1+rng.Intn(40)
		}
		layout := n % 3
		// inB[k] places the k-th sample of the merged order in b.
		inB := make([]bool, la+lb)
		switch layout {
		case interleaved:
			for _, k := range rng.Perm(la + lb)[:lb] {
				inB[k] = true
			}
		case nested:
			// a holds the first and the last sample, b falls inside.
			if la < 2 {
				la++
				inB = append(inB, false)
			}
			for _, k := range rng.Perm(la + lb - 2)[:lb] {
				inB[k+1] = true
			}
		case disjoint:
			for k := la; k < la+lb; k++ {
				inB[k] = true
			}
		}

		var a, b []obs.Sample
		seq := uint64(1 + rng.Intn(1000))
		id := uint16(rng.Intn(1 << 16))
		if rng.Intn(4) == 0 {
			id = 0xffff - uint16(rng.Intn(8))
		}
		var wrapped, maxStep, halfStep, equalCross bool
		for k := range inB {
			if k > 0 {
				seq += uint64(1 + rng.Intn(3))
				var step uint16
				switch p := rng.Intn(100); {
				case p < 84:
					step = uint16(1 + rng.Intn(64))
				case p < 87:
					equalCross = equalCross || inB[k] != inB[k-1]
				case p < 91:
					step, maxStep = wrapThreshold-1, true
				case p < 95:
					step, halfStep = wrapThreshold, true
				default:
					step = uint16(rng.Intn(1 << 16))
				}
				wrapped = wrapped || id+step < id
				id += step
			}
			s := obs.Sample{Seq: seq, IPID: id}
			if inB[k] {
				b = append(b, s)
			} else {
				a = append(a, s)
			}
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}

		want := oracleMBT(a, b)
		if got := MBTVerdict(a, b); got != want {
			t.Fatalf("case %d: MBTVerdict(a, b) = %v, sorted merge %v\na=%v\nb=%v", n, got, want, a, b)
		}
		if got := MBTVerdict(b, a); got != want {
			t.Fatalf("case %d: MBTVerdict(b, a) = %v, sorted merge %v\na=%v\nb=%v", n, got, want, a, b)
		}
		if want != Unable && (halfStep || equalCross) && want != Rejected {
			t.Fatalf("case %d: a step of 0 or 2^15 gave %v\na=%v\nb=%v", n, want, a, b)
		}
		byLayout[layout][want]++
		if min(la, lb) <= 3 {
			short[want]++
		}
		if want == Accepted && wrapped {
			wrapAccepted++
		}
		if want == Accepted && maxStep {
			maxStepAccepted++
		}
		if want == Rejected && halfStep {
			halfStepRejected++
		}
		if want == Rejected && equalCross {
			equalCrossRejected++
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"interleaved accept", byLayout[interleaved][Accepted]},
		{"interleaved reject", byLayout[interleaved][Rejected]},
		{"nested accept", byLayout[nested][Accepted]},
		{"nested reject", byLayout[nested][Rejected]},
		{"disjoint unable", byLayout[disjoint][Unable]},
		{"short accept", short[Accepted]},
		{"short reject", short[Rejected]},
		{"short unable", short[Unable]},
		{"accept across a wrap", wrapAccepted},
		{"accept with a 2^15-1 step", maxStepAccepted},
		{"reject on a 2^15 step", halfStepRejected},
		{"reject on equal IDs across series", equalCrossRejected},
	} {
		if c.n == 0 {
			t.Errorf("no random case covered %s", c.name)
		}
	}
	if byLayout[disjoint][Accepted]+byLayout[disjoint][Rejected] != 0 {
		t.Errorf("disjoint windows gave a verdict: %v", byLayout[disjoint])
	}
}

func TestMBTVerdictAllocatesNothing(t *testing.T) {
	a, b := make([]obs.Sample, 300), make([]obs.Sample, 300)
	for i := range a {
		a[i] = obs.Sample{Seq: uint64(2*i + 1), IPID: uint16(2*i + 1)}
		b[i] = obs.Sample{Seq: uint64(2*i + 2), IPID: uint16(2*i + 2)}
	}
	if v := MBTVerdict(a, b); v != Accepted {
		t.Fatalf("shared counter gave %v, want accept", v)
	}
	if n := testing.AllocsPerRun(100, func() { MBTVerdict(a, b) }); n != 0 {
		t.Fatalf("MBTVerdict on two 300-sample series allocates %v times, want 0", n)
	}
}

func TestMBTVerdictRequiresOverlap(t *testing.T) {
	a := []obs.Sample{{Seq: 1, IPID: 10}, {Seq: 3, IPID: 12}, {Seq: 5, IPID: 14}}
	b := []obs.Sample{{Seq: 10, IPID: 20}, {Seq: 11, IPID: 22}, {Seq: 12, IPID: 24}}
	if v := MBTVerdict(a, b); v != Unable {
		t.Fatalf("disjoint windows gave %v, want unable", v)
	}
	b2 := []obs.Sample{{Seq: 2, IPID: 11}, {Seq: 4, IPID: 13}}
	if v := MBTVerdict(a, b2); v != Accepted {
		t.Fatalf("interleaved shared counter gave %v, want accept", v)
	}
	b3 := []obs.Sample{{Seq: 2, IPID: 30000}, {Seq: 4, IPID: 30010}}
	if v := MBTVerdict(a, b3); v != Rejected {
		t.Fatalf("independent counters gave %v, want reject", v)
	}
}

// buildAliasedDiamond sets up a 4-wide diamond whose four interfaces
// belong to two routers (two interfaces each).
func buildAliasedDiamond(seed uint64, mode fakeroute.IPIDMode) (*fakeroute.Network, *topo.Graph, map[packet.Addr]int) {
	net := fakeroute.NewNetwork(seed)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Spread(4).Converge(1).End(testDst)

	routerOf := make(map[packet.Addr]int)
	mid := g.Hop(1)
	r1, r2 := net.NewRouter(), net.NewRouter()
	r1.IPID, r2.IPID = mode, mode
	for i, id := range mid {
		r := r1
		if i >= 2 {
			r = r2
		}
		a := g.V(id).Addr
		net.AddIface(r, a)
		routerOf[a] = r.ID
	}
	// Remaining hops: one router per interface.
	net.EnsureIfaces(g, testDst)
	for i := range g.Vertices {
		a := g.Vertices[i].Addr
		if _, ok := routerOf[a]; !ok && a != testDst && a != topo.StarAddr {
			routerOf[a] = net.RouterOf(a).ID
		}
	}
	net.AddPath(testSrc, testDst, g)
	return net, g, routerOf
}

func traceAndResolve(t *testing.T, seed uint64, mode fakeroute.IPIDMode) ([]RoundResult, map[packet.Addr]int, *topo.Graph) {
	t.Helper()
	net, truth, routerOf := buildAliasedDiamond(seed, mode)
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	res := mda.TraceLite(p, mda.Config{Seed: seed, Obs: o}, 2)
	if !res.ReachedDst {
		t.Fatal("trace did not reach destination")
	}
	var mid []packet.Addr
	for _, id := range res.Graph.Hop(1) {
		if a := res.Graph.V(id).Addr; a != topo.StarAddr {
			mid = append(mid, a)
		}
	}
	if len(mid) != 4 {
		t.Fatalf("expected 4 addresses at hop 1, got %d", len(mid))
	}
	r := NewResolver(p, o)
	return r.Resolve([][]packet.Addr{mid}), routerOf, truth
}

func TestResolveSharedCounters(t *testing.T) {
	rounds, routerOf, _ := traceAndResolve(t, 42, fakeroute.IPIDShared)
	final := rounds[len(rounds)-1]
	routers := RouterSets(final.Sets)
	if len(routers) != 2 {
		t.Fatalf("expected 2 router sets, got %d: %+v", len(routers), final.Sets)
	}
	var addrs []packet.Addr
	for a := range routerOf {
		addrs = append(addrs, a)
	}
	truthPairs := GroundTruthPairs(routerOf, addrs)
	pred := AliasPairs(final.Sets)
	p, r := PrecisionRecall(pred, truthPairs)
	if p < 0.99 || r < 0.99 {
		t.Fatalf("P=%.2f R=%.2f, want ~1 on shared counters", p, r)
	}
}

func TestResolveConstantZeroUnable(t *testing.T) {
	rounds, _, _ := traceAndResolve(t, 43, fakeroute.IPIDConstantZero)
	final := rounds[len(rounds)-1]
	if len(RouterSets(final.Sets)) != 0 {
		t.Fatalf("constant-zero counters must not produce accepted routers: %+v", final.Sets)
	}
}

func TestResolvePerInterfaceIndirectRejects(t *testing.T) {
	// Per-interface Time Exceeded counters: indirect probing must reject
	// the alias pairs (the paper's explanation for MIDAR-accept /
	// MMLPT-reject disagreements).
	rounds, routerOf, _ := traceAndResolve(t, 44, fakeroute.IPIDPerInterface)
	final := rounds[len(rounds)-1]
	pred := AliasPairs(final.Sets)
	var addrs []packet.Addr
	for a := range routerOf {
		addrs = append(addrs, a)
	}
	truthPairs := GroundTruthPairs(routerOf, addrs)
	for pair := range pred {
		if truthPairs[pair] {
			t.Fatalf("indirect probing accepted a per-interface-counter alias pair %v", pair)
		}
	}
}

func TestRound0CoarserThanRound10(t *testing.T) {
	rounds, _, _ := traceAndResolve(t, 45, fakeroute.IPIDShared)
	if rounds[0].Probes != 0 {
		t.Fatalf("round 0 must be free, sent %d", rounds[0].Probes)
	}
	if rounds[1].Probes == 0 {
		t.Fatal("round 1 must probe")
	}
	last := rounds[len(rounds)-1]
	if last.Probes <= rounds[1].Probes {
		t.Fatal("cumulative probes must grow over rounds")
	}
}

func TestFingerprintSplitsDifferentStacks(t *testing.T) {
	net, g, _ := buildAliasedDiamond(46, fakeroute.IPIDConstantZero)
	// Give the two routers different fingerprints: with constant-zero
	// counters the MBT is silent, so only fingerprinting separates them.
	net.Routers()[0].InitialTTLExceeded = 255
	net.Routers()[0].InitialTTLEcho = 255
	net.Routers()[1].InitialTTLExceeded = 64
	net.Routers()[1].InitialTTLEcho = 64
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	mda.TraceLite(p, mda.Config{Seed: 46, Obs: o}, 2)
	var mid []packet.Addr
	for _, id := range g.Hop(1) {
		mid = append(mid, g.V(id).Addr)
	}
	r := NewResolver(p, o)
	r.FingerprintRound(mid)
	ev := pairVerdict(r, mid[0], mid[3]) // router 0 vs router 1
	if ev.Fingerprint != Rejected {
		t.Fatalf("different initial TTLs must reject, got %v", ev.Fingerprint)
	}
	ev2 := pairVerdict(r, mid[0], mid[1]) // same router
	if ev2.Fingerprint == Rejected {
		t.Fatal("same fingerprints must not reject")
	}
}

func TestMPLSLabelEvidence(t *testing.T) {
	net, g, _ := buildAliasedDiamond(47, fakeroute.IPIDConstantZero)
	mid := g.Hop(1)
	// Same label on router 0's two interfaces, different on router 1's.
	net.Iface(g.V(mid[0]).Addr).MPLSLabel = 100
	net.Iface(g.V(mid[1]).Addr).MPLSLabel = 100
	net.Iface(g.V(mid[2]).Addr).MPLSLabel = 200
	net.Iface(g.V(mid[3]).Addr).MPLSLabel = 300
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	mda.TraceLite(p, mda.Config{Seed: 47, Obs: o}, 2)
	r := NewResolver(p, o)
	a0, a1, a2, a3 := g.V(mid[0]).Addr, g.V(mid[1]).Addr, g.V(mid[2]).Addr, g.V(mid[3]).Addr
	if ev := pairVerdict(r, a0, a1); ev.MPLS != Accepted {
		t.Fatalf("same constant label must accept, got %v", ev.MPLS)
	}
	if ev := pairVerdict(r, a2, a3); ev.MPLS != Rejected {
		t.Fatalf("different labels must reject, got %v", ev.MPLS)
	}
}

func TestDirectResolverUnresponsive(t *testing.T) {
	net, g, _ := buildAliasedDiamond(48, fakeroute.IPIDShared)
	for _, r := range net.Routers() {
		r.RespondsToEcho = false
	}
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	mda.TraceLite(p, mda.Config{Seed: 48, Obs: o}, 2)
	var mid []packet.Addr
	for _, id := range g.Hop(1) {
		mid = append(mid, g.V(id).Addr)
	}
	r := &Resolver{P: p, Obs: obs.New(), Direct: true, ProbesPerRound: 10, Rounds: 2}
	r.ProbeRound(mid)
	if ok, cause := r.AddrUsable(mid[0]); ok || cause != CauseUnresponsive {
		t.Fatalf("unresponsive echo must yield CauseUnresponsive, got ok=%v %v", ok, cause)
	}
}

func TestDirectResolverCopyProbe(t *testing.T) {
	net, g, _ := buildAliasedDiamond(49, fakeroute.IPIDEchoCopy)
	p := probe.NewSimProber(net, testSrc, testDst)
	var mid []packet.Addr
	for _, id := range g.Hop(1) {
		mid = append(mid, g.V(id).Addr)
	}
	r := &Resolver{P: p, Obs: obs.New(), Direct: true, ProbesPerRound: 10, Rounds: 2}
	r.ProbeRound(mid)
	if ok, cause := r.AddrUsable(mid[0]); ok || cause != CauseCopyProbe {
		t.Fatalf("copy-probe router must yield CauseCopyProbe, got ok=%v %v", ok, cause)
	}
}
