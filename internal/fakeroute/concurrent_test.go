package fakeroute

import (
	"bytes"
	"sync"
	"testing"

	"mmlpt/internal/packet"
)

// buildPairNetwork registers `pairs` independent diamond paths on one
// network, returning the destination of each pair.
func buildPairNetwork(seed uint64, pairs int) (*Network, []packet.Addr) {
	net := NewNetwork(seed)
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	dsts := make([]packet.Addr, pairs)
	for i := range dsts {
		dst := packet.AddrFrom4(198, 51, 100, byte(10+i))
		g := SymmetricDiamond(alloc, dst)
		net.EnsureIfaces(g, dst)
		net.AddPath(tSrc, dst, g)
		dsts[i] = dst
	}
	return net, dsts
}

// probeSequence sends a fixed probe schedule for one pair through its
// session and returns the concatenated reply bytes.
func probeSequence(s *Session, dst packet.Addr) []byte {
	var buf bytes.Buffer
	for flow := uint16(0); flow < 12; flow++ {
		for ttl := byte(1); ttl <= 4; ttl++ {
			pr := packet.Probe{Src: tSrc, Dst: dst, FlowID: flow, TTL: ttl, Checksum: flow + uint16(ttl)<<8}
			buf.Write(s.HandleProbe(pr.AppendTo(nil)))
		}
	}
	return buf.Bytes()
}

// TestConcurrentSessionsDeterministic: handling many pairs' probes
// concurrently must yield, per pair, byte-identical replies to a serial
// walk of the same schedule — per-trace sessions isolate all mutable
// state (run with -race to also prove the absence of data races).
func TestConcurrentSessionsDeterministic(t *testing.T) {
	const pairs = 8

	serialNet, dsts := buildPairNetwork(77, pairs)
	want := make([][]byte, pairs)
	for i, dst := range dsts {
		want[i] = probeSequence(serialNet.SessionFor(tSrc, dst), dst)
	}

	concNet, dsts2 := buildPairNetwork(77, pairs)
	got := make([][]byte, pairs)
	var wg sync.WaitGroup
	for i, dst := range dsts2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = probeSequence(concNet.SessionFor(tSrc, dst), dst)
		}()
	}
	wg.Wait()

	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("pair %d: concurrent replies diverge from serial run", i)
		}
	}
}

// TestSessionSharedByEchoAndTrace: direct and indirect probes routed
// through one session must sample the same router counter view, the
// property the Monotonic Bounds Test depends on.
func TestSessionSharedByEchoAndTrace(t *testing.T) {
	net, path := BuildScenario(31, tSrc, tDst, SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	net.RouterOf(addr).Velocity = 0 // pure sample-increment counter
	s := net.SessionFor(tSrc, tDst)

	ids := make([]uint16, 0, 6)
	for i := 0; i < 3; i++ {
		pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: 0, TTL: 1, Checksum: uint16(i + 1)}
		r, err := parseReply(s.HandleProbe(pr.AppendTo(nil)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.IPID)
		ep := packet.EchoProbe{Src: tSrc, Dst: addr, ID: 7, Seq: uint16(i), IPID: uint16(i)}
		re, err := parseReply(s.HandleProbe(ep.AppendTo(nil)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, re.IPID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("interleaved echo/trace IP IDs not one shared counter: %v", ids)
		}
	}
}
