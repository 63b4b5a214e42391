package fakeroute

import (
	"bytes"
	"fmt"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
	"mmlpt/internal/topo"
)

// replyLog collects a probe schedule's replies and counts what it saw:
// a nil reply is a drop, and every other one was emitted.
type replyLog struct {
	bytes.Buffer
	replies, dropped int
}

// record appends raw to the log, or a drop marker when raw is nil and
// marked is set, so alignment differences cannot cancel out.
func (l *replyLog) record(raw []byte, marked bool) {
	if raw == nil {
		l.dropped++
		if marked {
			l.WriteString("|drop|")
		}
		return
	}
	l.replies++
	l.Write(raw)
}

// replyStream runs a fixed probe schedule (many flows × many TTLs, echo
// probes interleaved) through the pair's session and logs the replies,
// with a drop marker per silent traceroute probe.
func replyStream(n *Network, dst packet.Addr, echoAddr packet.Addr) *replyLog {
	s := n.SessionFor(tSrc, dst)
	var log replyLog
	for flow := uint16(0); flow < 24; flow++ {
		for ttl := byte(1); ttl <= 8; ttl++ {
			pr := packet.Probe{Src: tSrc, Dst: dst, FlowID: flow, TTL: ttl, Checksum: flow*8 + uint16(ttl)}
			log.record(s.HandleProbe(pr.AppendTo(nil)), true)
		}
		if echoAddr != 0 {
			ep := packet.EchoProbe{Src: tSrc, Dst: echoAddr, ID: 0x4d4c, Seq: flow, IPID: flow}
			log.record(s.HandleProbe(ep.AppendTo(nil)), false)
		}
	}
	return &log
}

// scrambledStream probes many flows in a pseudo-random (flow, TTL) order
// — deep before shallow, shallow before deep, below the first hop and
// past the destination — and logs the replies as replyStream does.
func scrambledStream(n *Network) *replyLog {
	s := n.SessionFor(tSrc, tDst)
	var log replyLog
	x := uint32(12345)
	for i := 0; i < 2000; i++ {
		x = x*1664525 + 1013904223
		flow, ttl := uint16(x>>8)%48, byte(x>>24)%9 // TTL 0..8: below, inside and past the path
		pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: flow, TTL: ttl, Checksum: uint16(i + 1)}
		log.record(s.HandleProbe(pr.AppendTo(nil)), true)
	}
	return &log
}

// deadEndPath has a dead end at hop 1: flows balanced onto it go no
// further, whatever their TTL; the others continue over a 3-wide hop to
// the destination at hop 5.
func deadEndPath(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	b := NewPathBuilder(alloc).Spread(2)
	g, hop1 := b.Graph(), b.Current()
	var hop2 []topo.VertexID
	for i := 0; i < 3; i++ {
		w := g.AddVertex(2, alloc.Next())
		g.AddEdge(hop1[0], w) // hop1[1] keeps no successor
		hop2 = append(hop2, w)
	}
	join := g.AddVertex(3, alloc.Next())
	last := g.AddVertex(4, alloc.Next())
	end := g.AddVertex(5, dst)
	for _, w := range hop2 {
		g.AddEdge(w, join)
	}
	g.AddEdge(join, last)
	g.AddEdge(last, end)
	return g
}

// TestWalkMemoByteIdentical: the forwarding loop answers byte for byte
// what it answered while a per-session memo of flow walks served
// per-flow and per-destination probes. Every reply byte, every silent
// drop and the stream's reply/drop counts are pinned across per-flow,
// per-destination, weighted, per-packet, lossy and rate-limited
// balancing on three shapes, across a mid-trace route change
// (Path.Alt), and over a scrambled (flow, TTL) order on a path with a
// dead end. Per-packet balancing and loss draw from the session stream,
// so these pins also pin the RNG draw order.
func TestWalkMemoByteIdentical(t *testing.T) {
	shapes := []struct {
		name  string
		build func(*AddrAllocator, packet.Addr) *topo.Graph
	}{
		{"simplest", SimplestDiamond},
		{"meshed48", MeshedDiamond48},
		{"asymmetric", AsymmetricDiamond},
	}
	configs := []struct {
		name      string
		configure func(*Network, *Path)
	}{
		{"perflow", func(*Network, *Path) {}},
		{"perdest", func(_ *Network, p *Path) {
			p.LB[p.Graph.Hop(0)[0]] = LBPerDestination
		}},
		{"weighted", func(_ *Network, p *Path) {
			div := p.Graph.Hop(0)[0]
			w := make([]float64, p.Graph.OutDegree(div))
			for i := range w {
				w[i] = float64(i + 1)
			}
			p.WeightedEdges = map[topo.VertexID][]float64{div: w}
		}},
		{"perpacket", func(_ *Network, p *Path) {
			p.LB[p.Graph.Hop(0)[0]] = LBPerPacket
		}},
		{"lossy", func(n *Network, _ *Path) { n.LossProb = 0.3 }},
		{"ratelimited", func(n *Network, p *Path) {
			// Tight enough that the bucket runs dry mid-stream.
			r := n.RouterOf(p.Graph.V(p.Graph.Hop(1)[0]).Addr)
			r.RateLimit = 2
			r.RatePeriod = 100
		}},
	}
	type streamCase struct {
		name string
		run  func() *replyLog
	}
	var cases []streamCase
	for _, sh := range shapes {
		for _, cfg := range configs {
			cases = append(cases, streamCase{sh.name + "/" + cfg.name, func() *replyLog {
				n, p := BuildScenario(99, tSrc, tDst, sh.build)
				cfg.configure(n, p)
				return replyStream(n, tDst, p.Graph.V(p.Graph.Hop(0)[0]).Addr)
			}})
		}
	}
	cases = append(cases,
		streamCase{"routechange", func() *replyLog {
			n := NewNetwork(7)
			alloc := NewAddrAllocator(packet.AddrFrom4(10, 40, 0, 1))
			before := SimplestDiamond(alloc, tDst)
			after := MaxLength2Diamond(alloc, tDst)
			n.EnsureIfaces(before, tDst)
			n.EnsureIfaces(after, tDst)
			p := n.AddPath(tSrc, tDst, before)
			p.Alt = after
			p.AltAt = 40
			return replyStream(n, tDst, 0)
		}},
		streamCase{"deadend/scrambled", func() *replyLog {
			n, _ := BuildScenario(77, tSrc, tDst, deadEndPath)
			return scrambledStream(n)
		}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := c.run()
			pin.Check(t, "fakeroute/"+c.name, fmt.Appendf(l.Bytes(), "|replies=%d|dropped=%d", l.replies, l.dropped))
		})
	}
}

// freshFlowAllocs probes 64 fresh flows of the session's pair per run,
// flow f at TTL ttl(f), and returns the allocations per run once a
// warm-up run has compiled the tables and sized the scratch buffers.
func freshFlowAllocs(s *Session, ttl func(flow uint16) byte) float64 {
	var buf []byte
	flow := uint16(0)
	probeFresh := func() {
		for i := 0; i < 64; i++ {
			pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: flow, TTL: ttl(flow), Checksum: flow + 1}
			buf = pr.AppendTo(buf[:0])
			s.HandleProbe(buf)
			flow++
		}
	}
	probeFresh()
	return testing.AllocsPerRun(100, probeFresh)
}

// TestFreshFlowsAllocateNothing: the surveys' traffic is mostly flows the
// session has not seen before, each probed at one or two TTLs, so a new
// flow must cost the forwarding loop nothing once the tables are compiled
// and the scratch buffers sized.
func TestFreshFlowsAllocateNothing(t *testing.T) {
	net, _ := BuildScenario(1, tSrc, tDst, MeshedDiamond48)
	s := net.SessionFor(tSrc, tDst)
	if allocs := freshFlowAllocs(s, func(flow uint16) byte { return byte(1 + flow%8) }); allocs != 0 {
		t.Fatalf("64 fresh flows cost %v allocations, want 0", allocs)
	}
}

// TestLabelledRepliesAllocateNothing: a Time Exceeded reply from an
// interface inside an MPLS tunnel carries an RFC 4950 extension, and
// building it costs the session nothing either: the extension and the
// RFC 4884 padding are appended into session scratch.
func TestLabelledRepliesAllocateNothing(t *testing.T) {
	net, p := BuildScenario(1, tSrc, tDst, SimplestDiamond)
	for _, v := range p.Graph.Hop(1) {
		net.Iface(p.Graph.V(v).Addr).MPLSLabel = 16000 + uint32(v)
	}
	s := net.SessionFor(tSrc, tDst)
	pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 999, TTL: 2, Checksum: 1}
	if r, err := parseReply(s.HandleProbe(pr.AppendTo(nil))); err != nil || len(r.MPLS) != 1 {
		t.Fatalf("reply from hop 1 carries MPLS %+v (err %v), want one label", r, err)
	}
	if allocs := freshFlowAllocs(s, func(uint16) byte { return 2 }); allocs != 0 {
		t.Fatalf("64 labelled replies cost %v allocations, want 0", allocs)
	}
}

// TestGarbageProbeCreatesNoSession: a packet too short to carry an IPv4
// header, or a probe for another configured pair, gets no reply from a
// session and materializes no session for any other pair.
func TestGarbageProbeCreatesNoSession(t *testing.T) {
	net, _ := BuildScenario(16, tSrc, tDst, SimplestDiamond)
	other := packet.MustParseAddr("198.51.100.78")
	g := SimplestDiamond(NewAddrAllocator(packet.AddrFrom4(10, 1, 0, 1)), other)
	net.EnsureIfaces(g, other)
	net.AddPath(tSrc, other, g)
	s := net.SessionFor(tSrc, tDst)
	for _, raw := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, packet.IPv4HeaderLen-1)} {
		if s.HandleProbe(raw) != nil {
			t.Fatalf("runt packet (%d bytes) produced a reply", len(raw))
		}
	}
	pr := packet.Probe{Src: tSrc, Dst: other, FlowID: 0, TTL: 3, Checksum: 1}
	if s.HandleProbe(pr.AppendTo(nil)) != nil {
		t.Fatal("a session answered another pair's probe")
	}
	net.sessMu.RLock()
	ns := len(net.sessions)
	net.sessMu.RUnlock()
	if ns != 1 {
		t.Fatalf("garbage and foreign probes left %d session(s), want only the prober's 1", ns)
	}
}

// TestCompiledTablesSeeLateConfiguration: LB modes and weights assigned
// after AddPath but before the first probe (the documented construction
// window) must be honoured by the compiled fast path.
func TestCompiledTablesSeeLateConfiguration(t *testing.T) {
	net, path := BuildScenario(4, tSrc, tDst, Fig1UnmeshedDiamond)
	path.LB[path.Graph.Hop(0)[0]] = LBPerPacket
	seen := map[packet.Addr]bool{}
	for i := 0; i < 64; i++ {
		if r := sendProbe(net, 1, 2); r != nil {
			seen[r.From] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("per-packet mode set after AddPath was ignored: %v", seen)
	}
}

// TestSessionReplyBufferReused: the documented ownership contract — the
// returned reply slice is session scratch, reused by the next
// HandleProbe on the same session, so retaining callers must copy.
func TestSessionReplyBufferReused(t *testing.T) {
	net, _ := BuildScenario(3, tSrc, tDst, SimplestDiamond)
	s := net.SessionFor(tSrc, tDst)
	pr1 := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 1, TTL: 1, Checksum: 11}
	first := s.HandleProbe(pr1.AppendTo(nil))
	if first == nil {
		t.Fatal("no reply")
	}
	saved := append([]byte(nil), first...)
	pr2 := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 2, TTL: 1, Checksum: 22}
	second := s.HandleProbe(pr2.AppendTo(nil))
	if second == nil {
		t.Fatal("no second reply")
	}
	// Same-size replies reuse the same backing array: the zero-allocation
	// contract in action.
	if &first[0] != &second[0] {
		t.Fatal("reply buffer was reallocated between same-size replies")
	}
	// A copy taken before the next call still parses as the first reply.
	r, err := parseReply(saved)
	if err != nil || r.ProbeIdentity != 11 {
		t.Fatalf("copied first reply parse: %+v err %v, want identity 11", r, err)
	}
}
