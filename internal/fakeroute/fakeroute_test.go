package fakeroute

import (
	"math"
	"testing"
	"testing/quick"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

var (
	tSrc = packet.MustParseAddr("192.0.2.1")
	tDst = packet.MustParseAddr("198.51.100.77")
)

// parseReply decodes a reply into a fresh Reply.
func parseReply(raw []byte) (*packet.Reply, error) {
	r := new(packet.Reply)
	return r, packet.ParseReplyInto(r, raw)
}

func sendProbe(n *Network, flow uint16, ttl byte) *packet.Reply {
	pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: flow, TTL: ttl, Checksum: 7}
	raw := n.SessionFor(tSrc, tDst).HandleProbe(pr.AppendTo(nil))
	if raw == nil {
		return nil
	}
	r, err := parseReply(raw)
	if err != nil {
		return nil
	}
	return r
}

func TestTTLSemantics(t *testing.T) {
	net, path := BuildScenario(1, tSrc, tDst, SimplestDiamond)
	g := path.Graph
	// TTL 1 must expire at hop 0 (the divergence point).
	r := sendProbe(net, 0, 1)
	if r == nil || r.Type != packet.ICMPTypeTimeExceeded {
		t.Fatal("no time exceeded at TTL 1")
	}
	if r.From != g.V(g.Hop(0)[0]).Addr {
		t.Fatalf("TTL 1 reply from %s, want hop 0", r.From)
	}
	// TTL 2 must expire at hop 1 (one of the two mid vertices).
	r = sendProbe(net, 0, 2)
	found := false
	for _, id := range g.Hop(1) {
		if g.V(id).Addr == r.From {
			found = true
		}
	}
	if !found {
		t.Fatalf("TTL 2 reply from %s, not a hop 1 vertex", r.From)
	}
	// A large TTL must reach the destination: port unreachable.
	r = sendProbe(net, 0, 30)
	if r == nil || !r.IsPortUnreachable() || r.From != tDst {
		t.Fatalf("TTL 30 reply %+v, want port unreachable from destination", r)
	}
}

func TestPerFlowDeterminism(t *testing.T) {
	net, _ := BuildScenario(2, tSrc, tDst, MaxLength2Diamond)
	for flow := uint16(0); flow < 20; flow++ {
		r1 := sendProbe(net, flow, 2)
		r2 := sendProbe(net, flow, 2)
		if r1 == nil || r2 == nil || r1.From != r2.From {
			t.Fatalf("flow %d not deterministic: %v vs %v", flow, r1, r2)
		}
	}
}

func TestPerFlowUniformity(t *testing.T) {
	// Over many flows, a 4-way balancer must spread roughly evenly.
	net, path := BuildScenario(3, tSrc, tDst, Fig1UnmeshedDiamond)
	counts := map[packet.Addr]int{}
	const flows = 2000
	for flow := 0; flow < flows; flow++ {
		r := sendProbe(net, uint16(flow), 2)
		if r == nil {
			t.Fatal("dropped probe")
		}
		counts[r.From]++
	}
	if len(counts) != 4 {
		t.Fatalf("reached %d interfaces, want 4", len(counts))
	}
	for addr, c := range counts {
		frac := float64(c) / flows
		if frac < 0.20 || frac > 0.30 {
			t.Errorf("interface %s got %.3f of flows, want ~0.25", addr, frac)
		}
	}
	_ = path
}

func TestPerPacketLoadBalancing(t *testing.T) {
	net, path := BuildScenario(4, tSrc, tDst, Fig1UnmeshedDiamond)
	// Make hop 0's vertex a per-packet balancer.
	path.LB[path.Graph.Hop(0)[0]] = LBPerPacket
	seen := map[packet.Addr]bool{}
	for i := 0; i < 64; i++ {
		r := sendProbe(net, 1, 2) // same flow every time
		if r != nil {
			seen[r.From] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("per-packet balancer kept one path for a fixed flow: %v", seen)
	}
}

func TestWeightedEdges(t *testing.T) {
	net, path := BuildScenario(5, tSrc, tDst, SimplestDiamond)
	div := path.Graph.Hop(0)[0]
	path.WeightedEdges = map[topo.VertexID][]float64{div: {0.9, 0.1}}
	counts := map[packet.Addr]int{}
	const flows = 1000
	for f := 0; f < flows; f++ {
		if r := sendProbe(net, uint16(f), 2); r != nil {
			counts[r.From]++
		}
	}
	hi := 0
	for _, c := range counts {
		if c > hi {
			hi = c
		}
	}
	if frac := float64(hi) / flows; frac < 0.85 || frac > 0.95 {
		t.Fatalf("weighted 0.9 branch got %.3f of flows", frac)
	}
}

func TestStarHopNeverReplies(t *testing.T) {
	net := NewNetwork(6)
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := NewPathBuilder(alloc).Converge(1).Star().Converge(1).End(tDst)
	net.EnsureIfaces(g, tDst)
	net.AddPath(tSrc, tDst, g)
	// The star is at hop 2 (hop0 start, hop1 chain, hop2 star).
	if r := sendProbe(net, 0, 3); r != nil {
		t.Fatalf("star hop replied: %+v", r)
	}
	// Hops beyond the star still work.
	if r := sendProbe(net, 0, 4); r == nil {
		t.Fatal("hop after star did not reply")
	}
}

func TestIPIDSharedMonotonic(t *testing.T) {
	net, path := BuildScenario(7, tSrc, tDst, SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	var last uint16
	for i := 0; i < 10; i++ {
		r := sendProbe(net, 0, 1)
		if i > 0 {
			diff := r.IPID - last
			if diff == 0 || diff >= 1<<15 {
				t.Fatalf("shared counter not increasing: %d -> %d", last, r.IPID)
			}
		}
		last = r.IPID
	}
	_ = addr
}

func TestIPIDModes(t *testing.T) {
	net, path := BuildScenario(8, tSrc, tDst, SimplestDiamond)
	r0 := net.RouterOf(path.Graph.V(path.Graph.Hop(0)[0]).Addr)

	r0.IPID = IPIDConstantZero
	for i := 0; i < 3; i++ {
		if r := sendProbe(net, 0, 1); r.IPID != 0 {
			t.Fatalf("constant-zero returned %d", r.IPID)
		}
	}
	r0.IPID = IPIDRandom
	seen := map[uint16]bool{}
	for i := 0; i < 8; i++ {
		seen[sendProbe(net, 0, 1).IPID] = true
	}
	if len(seen) < 4 {
		t.Fatalf("random mode produced %d distinct values over 8 replies", len(seen))
	}
}

func TestEchoHandling(t *testing.T) {
	net, path := BuildScenario(9, tSrc, tDst, SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	e := packet.EchoProbe{Src: tSrc, Dst: addr, ID: 1, Seq: 2, IPID: 42}
	s := net.SessionFor(tSrc, tDst)
	raw := s.HandleProbe(e.AppendTo(nil))
	if raw == nil {
		t.Fatal("no echo reply")
	}
	r, err := parseReply(raw)
	if err != nil || !r.IsEchoReply() || r.From != addr || r.EchoSeq != 2 {
		t.Fatalf("echo reply %+v err %v", r, err)
	}
	net.RouterOf(addr).RespondsToEcho = false
	if s.HandleProbe(e.AppendTo(nil)) != nil {
		t.Fatal("unresponsive router replied to echo")
	}
}

func TestEchoCopyMode(t *testing.T) {
	net, path := BuildScenario(10, tSrc, tDst, SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	net.RouterOf(addr).IPID = IPIDEchoCopy
	e := packet.EchoProbe{Src: tSrc, Dst: addr, ID: 1, Seq: 2, IPID: 4242}
	r, _ := parseReply(net.SessionFor(tSrc, tDst).HandleProbe(e.AppendTo(nil)))
	if r.IPID != 4242 {
		t.Fatalf("echo-copy returned %d, want the probe's 4242", r.IPID)
	}
}

func TestRateLimiting(t *testing.T) {
	net, path := BuildScenario(11, tSrc, tDst, SimplestDiamond)
	r0 := net.RouterOf(path.Graph.V(path.Graph.Hop(0)[0]).Addr)
	r0.RateLimit = 5
	r0.RatePeriod = 1000
	replies := 0
	for i := 0; i < 50; i++ {
		if sendProbe(net, 0, 1) != nil {
			replies++
		}
	}
	if replies > 10 {
		t.Fatalf("rate limiter allowed %d/50 replies at 5/1000 ticks", replies)
	}
	if replies == 0 {
		t.Fatal("rate limiter blocked everything including the initial burst")
	}
}

func TestLoss(t *testing.T) {
	net, _ := BuildScenario(12, tSrc, tDst, SimplestDiamond)
	net.LossProb = 0.5
	replies := 0
	for i := 0; i < 200; i++ {
		if sendProbe(net, uint16(i), 1) != nil {
			replies++
		}
	}
	if replies < 60 || replies > 140 {
		t.Fatalf("50%% loss yielded %d/200 replies", replies)
	}
}

func TestMPLSLabelInReply(t *testing.T) {
	net, path := BuildScenario(13, tSrc, tDst, SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	net.Iface(addr).MPLSLabel = 777
	r := sendProbe(net, 0, 1)
	if len(r.MPLS) != 1 || r.MPLS[0].Label != 777 {
		t.Fatalf("MPLS stack %+v, want label 777", r.MPLS)
	}
}

func TestReplyTTLFingerprint(t *testing.T) {
	net, path := BuildScenario(14, tSrc, tDst, SimplestDiamond)
	r0 := net.RouterOf(path.Graph.V(path.Graph.Hop(0)[0]).Addr)
	r0.InitialTTLExceeded = 64
	r := sendProbe(net, 0, 1)
	if r.ReplyTTL != 63 { // distance 1 from hop 0
		t.Fatalf("reply TTL %d, want 63", r.ReplyTTL)
	}
}

func TestQuotedProbeSurvives(t *testing.T) {
	net, _ := BuildScenario(15, tSrc, tDst, SimplestDiamond)
	pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 31, TTL: 1, Checksum: 999}
	r, err := parseReply(net.SessionFor(tSrc, tDst).HandleProbe(pr.AppendTo(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasQuotedFlow || r.ProbeFlowID != 31 || r.ProbeIdentity != 999 || r.ProbeDst != tDst {
		t.Fatalf("quote lost: %+v", r)
	}
}

func TestVertexFailureProbClosedFormK2(t *testing.T) {
	// For K=2, failure = (1/2)^(n1-1): the n1-1 probes after the first
	// must all repeat the first branch.
	for n1 := 2; n1 <= 12; n1++ {
		nk := []int{1, n1, n1 * 2}
		want := math.Pow(0.5, float64(n1-1))
		got := VertexFailureProb(2, nk)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("n1=%d: %v, want %v", n1, got, want)
		}
	}
}

func TestVertexFailureProbProperties(t *testing.T) {
	nk := []int{1, 6, 11, 16, 21, 27, 33}
	if VertexFailureProb(1, nk) != 0 {
		t.Fatal("K=1 cannot fail")
	}
	// The table is designed so each K's failure probability stays at or
	// below the 5% design bound (it oscillates under it, it is not
	// monotone in K).
	for k := 2; k <= 6; k++ {
		p := VertexFailureProb(k, nk)
		if p <= 0 || p > 0.05 {
			t.Fatalf("K=%d: p=%v outside (0, 0.05]", k, p)
		}
	}
	// Property: a uniformly tighter table cannot increase failure.
	f := func(bump uint8) bool {
		tighter := make([]int, len(nk))
		for i, n := range nk {
			tighter[i] = n + int(bump%16)
		}
		tighter[0] = 1
		return VertexFailureProb(3, tighter) <= VertexFailureProb(3, nk)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphFailureProbComposition(t *testing.T) {
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 9, 0, 1))
	g := SimplestDiamond(alloc, tDst)
	nk := []int{1, 6, 11, 16, 21, 27, 33}
	single := GraphFailureProb(g, nk)
	if math.Abs(single-0.03125) > 1e-12 {
		t.Fatalf("simplest diamond failure %v, want 0.03125", single)
	}
	// Two independent branch points: failure = 1-(1-p)^2.
	alloc2 := NewAddrAllocator(packet.AddrFrom4(10, 10, 0, 1))
	b := NewPathBuilder(alloc2).Spread(2).Converge(1).Spread(2).Converge(1)
	g2 := b.End(tDst)
	want := 1 - (1-0.03125)*(1-0.03125)
	if got := GraphFailureProb(g2, nk); math.Abs(got-want) > 1e-12 {
		t.Fatalf("two-diamond failure %v, want %v", got, want)
	}
}

func TestBuilderShapesMetrics(t *testing.T) {
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 11, 0, 1))
	cases := []struct {
		name       string
		build      func(*AddrAllocator, packet.Addr) *topo.Graph
		width      int
		meshed     bool
		asymmetric bool
	}{
		{"simplest", SimplestDiamond, 2, false, false},
		{"fig1", Fig1UnmeshedDiamond, 4, false, false},
		{"fig1meshed", Fig1MeshedDiamond, 4, true, false},
		{"maxlen2", MaxLength2Diamond, 28, false, false},
		{"symmetric", SymmetricDiamond, 10, false, false},
		{"asymmetric", AsymmetricDiamond, 19, false, true},
		{"meshed48", MeshedDiamond48, 48, true, false},
	}
	for _, c := range cases {
		g := c.build(alloc, packet.Addr(uint32(tDst)+uint32(len(c.name))))
		ds := g.Diamonds()
		if len(ds) == 0 {
			t.Fatalf("%s: no diamond", c.name)
		}
		m := ds[0].ComputeMetrics()
		if m.MaxWidth != c.width {
			t.Errorf("%s: width %d, want %d", c.name, m.MaxWidth, c.width)
		}
		if m.Meshed != c.meshed {
			t.Errorf("%s: meshed %v, want %v", c.name, m.Meshed, c.meshed)
		}
		if (m.MaxWidthAsymmetry > 0) != c.asymmetric {
			t.Errorf("%s: asymmetry %d, want asymmetric=%v", c.name, m.MaxWidthAsymmetry, c.asymmetric)
		}
	}
}

func TestAsymmetricDiamondMatchesPaper(t *testing.T) {
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 12, 0, 1))
	g := AsymmetricDiamond(alloc, tDst)
	d := g.Diamonds()[0]
	m := d.ComputeMetrics()
	if m.MaxWidthAsymmetry != 17 {
		t.Errorf("asymmetry %d, want 17", m.MaxWidthAsymmetry)
	}
	multi := 0
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if g.Width(h) >= 2 {
			multi++
		}
	}
	if multi != 9 {
		t.Errorf("multi-vertex hops %d, want 9", multi)
	}
}

func TestMeshedDiamond48MatchesPaper(t *testing.T) {
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 13, 0, 1))
	g := MeshedDiamond48(alloc, tDst)
	d := g.Diamonds()[0]
	multi := 0
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if g.Width(h) >= 2 {
			multi++
		}
	}
	if multi != 5 {
		t.Errorf("multi-vertex hops %d, want 5", multi)
	}
	if !d.Meshed() {
		t.Error("not meshed")
	}
}

// TestHandleProbeGarbage: a session answers only its own pair. A runt or
// garbage packet, a probe of a pair with no path and a probe of another
// pair that has one all get no reply.
func TestHandleProbeGarbage(t *testing.T) {
	net, _ := BuildScenario(16, tSrc, tDst, SimplestDiamond)
	other := packet.MustParseAddr("198.51.100.78")
	g := SimplestDiamond(NewAddrAllocator(packet.AddrFrom4(10, 1, 0, 1)), other)
	net.EnsureIfaces(g, other)
	net.AddPath(tSrc, other, g)
	s := net.SessionFor(tSrc, tDst)
	unknown := packet.MustParseAddr("203.0.113.99")
	pr := packet.Probe{Src: tSrc, Dst: unknown, FlowID: 0, TTL: 3, Checksum: 1}
	if net.SessionFor(tSrc, unknown).HandleProbe(pr.AppendTo(nil)) != nil {
		t.Fatal("unknown destination produced a reply")
	}
	pr.Dst = other
	if net.SessionFor(tSrc, other).HandleProbe(pr.AppendTo(nil)) == nil {
		t.Fatal("the other pair's own session does not answer its probe")
	}
	if s.HandleProbe(pr.AppendTo(nil)) != nil {
		t.Fatal("a session answered another pair's probe")
	}
}

func TestDuplicateInterfacePanics(t *testing.T) {
	net := NewNetwork(1)
	r := net.NewRouter()
	net.AddIface(r, packet.AddrFrom4(10, 0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddIface did not panic")
		}
	}()
	net.AddIface(r, packet.AddrFrom4(10, 0, 0, 1))
}
