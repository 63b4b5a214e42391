package fakeroute

import (
	"bytes"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// replyStream runs a fixed probe schedule (many flows × many TTLs, echo
// probes interleaved) through the pair's session and returns the
// concatenated reply bytes, with a drop marker per silent probe so
// alignment differences cannot cancel out.
func replyStream(n *Network, dst packet.Addr, echoAddr packet.Addr) []byte {
	s := n.SessionFor(tSrc, dst)
	var buf bytes.Buffer
	for flow := uint16(0); flow < 24; flow++ {
		for ttl := byte(1); ttl <= 8; ttl++ {
			pr := packet.Probe{Src: tSrc, Dst: dst, FlowID: flow, TTL: ttl, Checksum: flow*8 + uint16(ttl)}
			raw := s.HandleProbe(pr.Serialize())
			if raw == nil {
				buf.WriteString("|drop|")
			} else {
				buf.Write(raw)
			}
		}
		if echoAddr != 0 {
			ep := packet.EchoProbe{Src: tSrc, Dst: echoAddr, ID: 0x4d4c, Seq: flow, IPID: flow}
			if raw := s.HandleProbe(ep.Serialize()); raw != nil {
				buf.Write(raw)
			}
		}
	}
	return buf.Bytes()
}

// TestWalkMemoByteIdentical: the flow-walk memo is a pure cache — with it
// force-disabled, every emitted reply byte must be identical, across
// per-flow, per-destination, weighted, star, rate-limited, lossy and
// per-packet configurations (the latter three bypass the memo; byte
// equality then proves the bypass preserves the RNG draw order).
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
		{"perflow", nil},
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
			r := n.RouterOf(p.Graph.V(p.Graph.Hop(1)[0]).Addr)
			r.RateLimit = 20
			r.RatePeriod = 100
		}},
	}
	for _, sh := range shapes {
		for _, cfg := range configs {
			t.Run(sh.name+"/"+cfg.name, func(t *testing.T) {
				memoNet, memoPath := BuildScenario(99, tSrc, tDst, sh.build)
				plainNet, plainPath := BuildScenario(99, tSrc, tDst, sh.build)
				plainNet.disableWalkMemo = true
				if cfg.configure != nil {
					cfg.configure(memoNet, memoPath)
					cfg.configure(plainNet, plainPath)
				}
				echoAddr := memoPath.Graph.V(memoPath.Graph.Hop(0)[0]).Addr
				want := replyStream(plainNet, tDst, echoAddr)
				got := replyStream(memoNet, tDst, echoAddr)
				if !bytes.Equal(want, got) {
					t.Fatalf("memoized replies diverge from fresh-walk replies (%d vs %d bytes)", len(got), len(want))
				}
				if memoNet.RepliesSent != plainNet.RepliesSent || memoNet.Dropped != plainNet.Dropped {
					t.Fatalf("stats diverge: memo %d/%d, fresh %d/%d",
						memoNet.RepliesSent, memoNet.Dropped, plainNet.RepliesSent, plainNet.Dropped)
				}
			})
		}
	}
}

// TestWalkMemoAcrossRouteChange: the memo key includes the graph
// generation, so a mid-trace topology swap (Path.Alt) must invalidate
// cached walks — replies after the swap come from the new graph.
func TestWalkMemoAcrossRouteChange(t *testing.T) {
	build := func() (*Network, *Path) {
		n := NewNetwork(7)
		alloc := NewAddrAllocator(packet.AddrFrom4(10, 40, 0, 1))
		before := SimplestDiamond(alloc, tDst)
		after := MaxLength2Diamond(alloc, tDst)
		n.EnsureIfaces(before, tDst)
		n.EnsureIfaces(after, tDst)
		p := n.AddPath(tSrc, tDst, before)
		p.Alt = after
		p.AltAt = 40
		return n, p
	}
	memoNet, _ := build()
	plainNet, _ := build()
	plainNet.disableWalkMemo = true
	want := replyStream(plainNet, tDst, 0)
	got := replyStream(memoNet, tDst, 0)
	if !bytes.Equal(want, got) {
		t.Fatal("memoized replies diverge across a route change")
	}
}

// TestGarbageProbeCreatesNoSession: a packet too short to carry an IPv4
// header must be dropped before the session lookup — previously it fell
// through with src=dst=0 and materialized a spurious (0,0) session.
func TestGarbageProbeCreatesNoSession(t *testing.T) {
	net, _ := BuildScenario(16, tSrc, tDst, SimplestDiamond)
	for _, raw := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, packet.IPv4HeaderLen-1)} {
		if net.HandleProbe(raw) != nil {
			t.Fatalf("runt packet (%d bytes) produced a reply", len(raw))
		}
	}
	net.sessMu.RLock()
	ns := len(net.sessions)
	net.sessMu.RUnlock()
	if ns != 0 {
		t.Fatalf("runt packets materialized %d session(s), want 0", ns)
	}
	if net.ProbesSeen != 4 || net.Dropped != 4 {
		t.Fatalf("stats: seen=%d dropped=%d, want 4/4", net.ProbesSeen, net.Dropped)
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
	first := s.HandleProbe(pr1.Serialize())
	if first == nil {
		t.Fatal("no reply")
	}
	saved := append([]byte(nil), first...)
	pr2 := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 2, TTL: 1, Checksum: 22}
	second := s.HandleProbe(pr2.Serialize())
	if second == nil {
		t.Fatal("no second reply")
	}
	// Same-size replies reuse the same backing array: the zero-allocation
	// contract in action.
	if &first[0] != &second[0] {
		t.Fatal("reply buffer was reallocated between same-size replies")
	}
	// A copy taken before the next call still parses as the first reply.
	r, err := packet.ParseReply(saved)
	if err != nil || r.ProbeIdentity != 11 {
		t.Fatalf("copied first reply parse: %+v err %v, want identity 11", r, err)
	}
}

// TestLazyWalkMatchesFreshWalk: memoized walks are extended only as far as
// the deepest TTL a flow has been probed at, and are carved side by side
// from a slab. Probing many flows in a scrambled (flow, TTL) order — deep
// before shallow, shallow before deep, past the destination, into a
// dead end — must still answer byte for byte what a fresh walk per
// probe answers, and extending one walk must never disturb its slab
// neighbours.
func TestLazyWalkMatchesFreshWalk(t *testing.T) {
	// Hop 1 holds a dead end: flows balanced onto it go no further, whatever
	// their TTL (the walk ends short of the destination hop); the others
	// continue over a 3-wide hop to the destination at hop 5.
	build := func(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
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
	stream := func(n *Network) []byte {
		s := n.SessionFor(tSrc, tDst)
		var buf bytes.Buffer
		x := uint32(12345)
		for i := 0; i < 2000; i++ {
			x = x*1664525 + 1013904223
			flow, ttl := uint16(x>>8)%48, byte(x>>24)%9 // TTL 0..8: below, inside and past the path
			pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: flow, TTL: ttl, Checksum: uint16(i + 1)}
			if raw := s.HandleProbe(pr.Serialize()); raw == nil {
				buf.WriteString("|drop|")
			} else {
				buf.Write(raw)
			}
		}
		return buf.Bytes()
	}
	memoNet, _ := BuildScenario(77, tSrc, tDst, build)
	plainNet, _ := BuildScenario(77, tSrc, tDst, build)
	plainNet.disableWalkMemo = true
	want, got := stream(plainNet), stream(memoNet)
	if !bytes.Equal(want, got) {
		t.Fatalf("lazily extended walks diverge from fresh walks (%d vs %d bytes)", len(got), len(want))
	}
	if memoNet.RepliesSent != plainNet.RepliesSent || memoNet.Dropped != plainNet.Dropped {
		t.Fatalf("stats diverge: memo %d/%d, fresh %d/%d",
			memoNet.RepliesSent, memoNet.Dropped, plainNet.RepliesSent, plainNet.Dropped)
	}
}
