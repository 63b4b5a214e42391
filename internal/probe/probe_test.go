package probe

import (
	"slices"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

var (
	tSrc = packet.MustParseAddr("192.0.2.1")
	tDst = packet.MustParseAddr("198.51.100.77")
)

// TestReplyValidUntilNextCall pins the Prober contract's reply lifetime
// on SimProber: a reply keeps its fields until the prober's next call,
// and the replies of one batch are pairwise distinct within the call.
func TestReplyValidUntilNextCall(t *testing.T) {
	net, _ := fakeroute.BuildScenario(40, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	p.Retries = 0
	other := NewSimProber(net, tSrc, tDst) // another prober's calls leave p's replies alone
	for i := 0; i < 64; i++ {
		r := p.Probe(uint16(i%8), 1+i%3)
		if r == nil {
			t.Fatalf("probe %d: no reply", i)
		}
		from, ipid, flow := r.From, r.IPID, r.ProbeFlowID
		other.ProbeBatch([]Spec{{FlowID: 9, TTL: 1}, {FlowID: 10, TTL: 2}})
		if r.From != from || r.IPID != ipid || r.ProbeFlowID != flow || flow != uint16(i%8) {
			t.Fatalf("probe %d: reply changed before p's next call: %+v", i, r)
		}
	}
	specs := make([]Spec, 40)
	for i := range specs {
		specs[i] = Spec{FlowID: uint16(i), TTL: 1 + i%3}
	}
	replies := p.ProbeBatch(specs)
	for i, r := range replies {
		if r == nil || r.ProbeFlowID != specs[i].FlowID {
			t.Fatalf("batch reply %d: %+v, want the reply to flow %d", i, r, specs[i].FlowID)
		}
		if slices.Contains(replies[:i], r) {
			t.Fatalf("batch replies share a struct at %d", i)
		}
	}
	a, b := replies[0].From, replies[1].From
	echoes := p.EchoBatch([]EchoSpec{{Addr: a, Seq: 1}, {Addr: b, Seq: 2}})
	if echoes[0] == echoes[1] || echoes[0].EchoSeq != 1 || echoes[1].EchoSeq != 2 {
		t.Fatalf("echo batch replies %+v, %+v", echoes[0], echoes[1])
	}
}

// TestSimProberSteadyStateAllocatesNothing: once its reply storage has
// grown, a SimProber's single probes, echoes and batches of up to 16
// specs allocate nothing.
func TestSimProberSteadyStateAllocatesNothing(t *testing.T) {
	net, path := fakeroute.BuildScenario(41, tSrc, tDst, fakeroute.SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	p := NewSimProber(net, tSrc, tDst)
	specs := make([]Spec, 16)
	echoes := make([]EchoSpec, 16)
	for i := range specs {
		specs[i] = Spec{FlowID: uint16(i), TTL: 1 + i%3}
		echoes[i] = EchoSpec{Addr: addr, Seq: uint16(i)}
	}
	flow := uint16(0)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Probe", func() { flow++; p.Probe(flow%1000, 2) }},
		{"Echo", func() { flow++; p.Echo(addr, flow) }},
		{"ProbeBatch", func() { p.ProbeBatch(specs) }},
		{"EchoBatch", func() { p.EchoBatch(echoes) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, allocs)
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

// TestRecorderRepliesOutliveLaterProbes: a Recorder splits a batch into
// single probes of a prober that reuses its reply storage, so it copies
// each reply; the batch's replies are distinct and stay intact after
// later probes.
func TestRecorderRepliesOutliveLaterProbes(t *testing.T) {
	net, _ := fakeroute.BuildScenario(5, tSrc, tDst, fakeroute.SimplestDiamond)
	sim := NewSimProber(net, tSrc, tDst)
	sim.Retries = 0
	rec := &Recorder{Prober: sim}
	specs := []Spec{{FlowID: 0, TTL: 1}, {FlowID: 1, TTL: 2}, {FlowID: 2, TTL: 2}, {FlowID: 3, TTL: 3}}
	replies := rec.ProbeBatch(specs)
	snap := make([]packet.Reply, len(replies))
	for i, r := range replies {
		if r == nil {
			t.Fatalf("reply %d: none", i)
		}
		for _, q := range replies[:i] {
			if q == r {
				t.Fatalf("replies share a struct at %d", i)
			}
		}
		snap[i] = *r
	}
	for i := 0; i < 8; i++ {
		rec.Probe(uint16(100+i), 1+i%3)
		sim.Probe(uint16(200+i), 1+i%3)
	}
	for i, r := range replies {
		if r.From != snap[i].From || r.IPID != snap[i].IPID || r.ProbeFlowID != specs[i].FlowID {
			t.Fatalf("reply %d changed after later probes: %+v, was %+v", i, r, snap[i])
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
