package probe

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

var (
	tSrc = packet.MustParseAddr("192.0.2.1")
	tDst = packet.MustParseAddr("198.51.100.77")
)

// TestRepliesRetainedAcrossArenaChunks: replies come from a chunked
// arena but are never recycled — a caller may hold every reply of a long
// trace and each must keep its own values, across multiple chunk
// boundaries (3×replyArenaChunk probes).
func TestRepliesRetainedAcrossArenaChunks(t *testing.T) {
	net, _ := fakeroute.BuildScenario(40, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	p.Retries = 0
	const n = 3 * replyArenaChunk
	replies := make([]*packet.Reply, 0, n)
	froms := make([]packet.Addr, 0, n)
	ipids := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		r := p.Probe(uint16(i%8), 1+i%3)
		if r == nil {
			t.Fatalf("probe %d: no reply", i)
		}
		replies = append(replies, r)
		froms = append(froms, r.From)
		ipids = append(ipids, r.IPID)
	}
	for i, r := range replies {
		if r.From != froms[i] || r.IPID != ipids[i] {
			t.Fatalf("reply %d mutated after later probes: %+v", i, r)
		}
		if i > 0 && r == replies[i-1] {
			t.Fatalf("replies %d and %d share a struct", i-1, i)
		}
	}
}

func TestSimProberProbeAndCount(t *testing.T) {
	net, _ := fakeroute.BuildScenario(1, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	r := p.Probe(0, 1)
	if r == nil || r.Type != packet.ICMPTypeTimeExceeded {
		t.Fatalf("probe reply %+v", r)
	}
	tr, e := p.Sent()
	if tr != 1 || e != 0 {
		t.Fatalf("sent %d/%d", tr, e)
	}
	if TotalSent(p) != 1 {
		t.Fatal("TotalSent mismatch")
	}
}

func TestSimProberRetriesCountAsSent(t *testing.T) {
	net, _ := fakeroute.BuildScenario(2, tSrc, tDst, fakeroute.SimplestDiamond)
	net.LossProb = 1 // nothing ever answers
	p := NewSimProber(net, tSrc, tDst)
	p.Retries = 2
	if r := p.Probe(0, 1); r != nil {
		t.Fatal("reply under 100% loss")
	}
	if tr, _ := p.Sent(); tr != 3 {
		t.Fatalf("sent %d, want 3 (1 + 2 retries)", tr)
	}
}

func TestSimProberEcho(t *testing.T) {
	net, path := fakeroute.BuildScenario(3, tSrc, tDst, fakeroute.SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	p := NewSimProber(net, tSrc, tDst)
	r := p.Echo(addr, 9)
	if r == nil || !r.IsEchoReply() || r.From != addr || r.EchoSeq != 9 {
		t.Fatalf("echo reply %+v", r)
	}
	if _, e := p.Sent(); e != 1 {
		t.Fatalf("echo sent %d", e)
	}
}

func TestSimProberFlowRangePanics(t *testing.T) {
	net, _ := fakeroute.BuildScenario(4, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range flow")
		}
	}()
	p.Probe(packet.MaxFlowID+1, 1)
}

func TestRecorderCallback(t *testing.T) {
	net, _ := fakeroute.BuildScenario(5, tSrc, tDst, fakeroute.SimplestDiamond)
	sim := NewSimProber(net, tSrc, tDst)
	var calls []uint64
	rec := &Recorder{Prober: sim, OnProbe: func(sent uint64, r *packet.Reply) {
		calls = append(calls, sent)
	}}
	rec.Probe(0, 1)
	rec.Probe(1, 1)
	rec.Echo(packet.MustParseAddr("10.0.0.1"), 1)
	if len(calls) != 3 {
		t.Fatalf("callbacks %d", len(calls))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Fatal("sent counter not increasing across callbacks")
		}
	}
}

func TestSimProberSerialNonZero(t *testing.T) {
	// Probe identities must never be zero (zero UDP checksum means "not
	// computed" on the wire).
	net, _ := fakeroute.BuildScenario(6, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	for i := 0; i < 70000; i += 7001 {
		r := p.Probe(uint16(i%1000), 1)
		if r != nil && r.ProbeIdentity == 0 {
			t.Fatal("zero probe identity on the wire")
		}
	}
}
