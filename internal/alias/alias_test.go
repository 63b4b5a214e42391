package alias

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
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
	res := mdalite.Trace(p, mda.Config{Seed: seed, Obs: o}, 2)
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
	mdalite.Trace(p, mda.Config{Seed: 46, Obs: o}, 2)
	var mid []packet.Addr
	for _, id := range g.Hop(1) {
		mid = append(mid, g.V(id).Addr)
	}
	r := NewResolver(p, o)
	r.FingerprintRound(mid)
	ev := r.PairVerdict(mid[0], mid[3]) // router 0 vs router 1
	if ev.Fingerprint != Rejected {
		t.Fatalf("different initial TTLs must reject, got %v", ev.Fingerprint)
	}
	ev2 := r.PairVerdict(mid[0], mid[1]) // same router
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
	mdalite.Trace(p, mda.Config{Seed: 47, Obs: o}, 2)
	r := NewResolver(p, o)
	a0, a1, a2, a3 := g.V(mid[0]).Addr, g.V(mid[1]).Addr, g.V(mid[2]).Addr, g.V(mid[3]).Addr
	if ev := r.PairVerdict(a0, a1); ev.MPLS != Accepted {
		t.Fatalf("same constant label must accept, got %v", ev.MPLS)
	}
	if ev := r.PairVerdict(a2, a3); ev.MPLS != Rejected {
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
	mdalite.Trace(p, mda.Config{Seed: 48, Obs: o}, 2)
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
