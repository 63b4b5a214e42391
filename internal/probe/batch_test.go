package probe

import (
	"sync"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

func TestProbeBatchAlignsWithSpecs(t *testing.T) {
	net, _ := fakeroute.BuildScenario(21, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	specs := []Spec{{FlowID: 0, TTL: 1}, {FlowID: 1, TTL: 2}, {FlowID: 2, TTL: 1}}
	replies := p.ProbeBatch(specs)
	if len(replies) != len(specs) {
		t.Fatalf("replies = %d, want %d", len(replies), len(specs))
	}
	for i, r := range replies {
		if r == nil || r.Type != packet.ICMPTypeTimeExceeded {
			t.Fatalf("reply %d: %+v", i, r)
		}
	}
	// Batch and single-probe paths share one core: counts must agree.
	if tr, _ := p.Sent(); tr != 3 {
		t.Fatalf("sent %d, want 3", tr)
	}
	single := p.Probe(0, 1)
	if single == nil || single.From != replies[0].From {
		t.Fatalf("single probe diverged from batch: %+v vs %+v", single, replies[0])
	}
}

func TestEchoBatchAlignsWithSpecs(t *testing.T) {
	net, path := fakeroute.BuildScenario(22, tSrc, tDst, fakeroute.SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	p := NewSimProber(net, tSrc, tDst)
	replies := p.EchoBatch([]EchoSpec{{Addr: addr, Seq: 4}, {Addr: addr, Seq: 5}})
	for i, r := range replies {
		if r == nil || !r.IsEchoReply() || r.EchoSeq != uint16(4+i) {
			t.Fatalf("echo reply %d: %+v", i, r)
		}
	}
	if _, e := p.Sent(); e != 2 {
		t.Fatalf("echo sent %d, want 2", e)
	}
}

// TestSerialAllocationSkipsInflight: the identity allocator must never
// hand out a serial currently held by an in-flight probe, even across a
// wraparound of the 16-bit space.
func TestSerialAllocationSkipsInflight(t *testing.T) {
	net, _ := fakeroute.BuildScenario(23, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	held := map[uint16]struct{}{}
	for i := 0; i < 3; i++ {
		s := p.nextSerial()
		if _, dup := held[s]; dup {
			t.Fatalf("duplicate serial %d", s)
		}
		held[s] = struct{}{}
	}
	// Force a wraparound: the next allocations must walk past 0 and the
	// three held identities without reusing any of them.
	p.mu.Lock()
	p.serial = 65534
	p.mu.Unlock()
	for i := 0; i < 6; i++ {
		s := p.nextSerial()
		if s == 0 {
			t.Fatal("zero serial allocated")
		}
		if _, dup := held[s]; dup {
			t.Fatalf("in-flight serial %d reused after wraparound", s)
		}
		held[s] = struct{}{}
	}
	for s := range held {
		p.releaseSerial(s)
	}
	if got := p.nextSerial(); got == 0 {
		t.Fatal("zero serial after release")
	}
}

// TestRecorderConcurrentBatches: a Recorder shared by concurrent batched
// probing must lose no callbacks, report monotonically non-decreasing
// cumulative counts, and agree with TotalSent at the end. Run with -race
// in CI, this is also the probe layer's race check.
func TestRecorderConcurrentBatches(t *testing.T) {
	net, path := fakeroute.BuildScenario(24, tSrc, tDst, fakeroute.SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	sim := NewSimProber(net, tSrc, tDst)
	sim.Retries = 0

	var calls int
	last := uint64(0)
	monotonic := true
	rec := &Recorder{Prober: sim, OnProbe: func(sent uint64, _ *packet.Reply) {
		// The Recorder serializes callbacks, so this closure needs no
		// extra locking.
		calls++
		if sent < last {
			monotonic = false
		}
		last = sent
	}}

	const (
		workers        = 8
		batchesPerGo   = 20
		probesPerBatch = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batchesPerGo; b++ {
				specs := make([]Spec, probesPerBatch)
				for i := range specs {
					specs[i] = Spec{FlowID: uint16((w*100 + i) % 1000), TTL: 1}
				}
				for _, r := range rec.ProbeBatch(specs) {
					if r == nil {
						panic("lost reply on deterministic topology")
					}
				}
				rec.EchoBatch([]EchoSpec{{Addr: addr, Seq: uint16(w)}})
			}
		}()
	}
	wg.Wait()

	wantProbes := uint64(workers * batchesPerGo * probesPerBatch)
	wantEchoes := uint64(workers * batchesPerGo)
	tr, e := rec.Sent()
	if tr != wantProbes || e != wantEchoes {
		t.Fatalf("sent %d/%d, want %d/%d", tr, e, wantProbes, wantEchoes)
	}
	if got := uint64(calls); got != wantProbes+wantEchoes {
		t.Fatalf("callbacks %d, want %d (no lost callbacks)", got, wantProbes+wantEchoes)
	}
	if !monotonic {
		t.Fatal("cumulative sent counts regressed across callbacks")
	}
	if TotalSent(rec) != wantProbes+wantEchoes {
		t.Fatalf("TotalSent %d, want %d", TotalSent(rec), wantProbes+wantEchoes)
	}
}

// batchSpy records the batch sizes forwarded to the underlying prober,
// to distinguish whole-batch forwarding from per-probe degradation.
type batchSpy struct {
	Prober
	probeBatches []int
	echoBatches  []int
}

func (s *batchSpy) ProbeBatch(specs []Spec) []*packet.Reply {
	s.probeBatches = append(s.probeBatches, len(specs))
	return s.Prober.ProbeBatch(specs)
}

func (s *batchSpy) EchoBatch(specs []EchoSpec) []*packet.Reply {
	s.echoBatches = append(s.echoBatches, len(specs))
	return s.Prober.EchoBatch(specs)
}

// TestRecorderOnBatch: with OnBatch set, batches must flow whole to the
// underlying prober (preserving a live transport's wave overlap) and be
// reported once per batch; without it, the per-probe path still applies.
func TestRecorderOnBatch(t *testing.T) {
	net, path := fakeroute.BuildScenario(26, tSrc, tDst, fakeroute.SimplestDiamond)
	addr := path.Graph.V(path.Graph.Hop(0)[0]).Addr
	sim := NewSimProber(net, tSrc, tDst)
	sim.Retries = 0
	spy := &batchSpy{Prober: sim}

	var batchCalls, probeCalls int
	var lastTotal uint64
	var lastLen int
	rec := &Recorder{
		Prober: spy,
		OnBatch: func(sent uint64, replies []*packet.Reply) {
			batchCalls++
			lastTotal = sent
			lastLen = len(replies)
		},
		OnProbe: func(sent uint64, _ *packet.Reply) { probeCalls++ },
	}

	specs := []Spec{{FlowID: 0, TTL: 1}, {FlowID: 1, TTL: 1}, {FlowID: 2, TTL: 2}}
	for i, r := range rec.ProbeBatch(specs) {
		if r == nil {
			t.Fatalf("reply %d lost on deterministic topology", i)
		}
	}
	if len(spy.probeBatches) != 1 || spy.probeBatches[0] != 3 {
		t.Fatalf("underlying batches = %v, want one batch of 3", spy.probeBatches)
	}
	if batchCalls != 1 || lastTotal != 3 || lastLen != 3 {
		t.Fatalf("OnBatch: %d calls, total %d, len %d; want 1, 3, 3", batchCalls, lastTotal, lastLen)
	}
	if probeCalls != 3 {
		t.Fatalf("OnProbe alongside OnBatch: %d calls, want 3 (one per reply)", probeCalls)
	}

	// Echo batches forward whole too.
	rec.EchoBatch([]EchoSpec{{Addr: addr, Seq: 1}, {Addr: addr, Seq: 2}})
	if len(spy.echoBatches) != 1 || spy.echoBatches[0] != 2 {
		t.Fatalf("underlying echo batches = %v, want one batch of 2", spy.echoBatches)
	}
	if batchCalls != 2 || lastLen != 2 {
		t.Fatalf("OnBatch after echo: %d calls, len %d; want 2, 2", batchCalls, lastLen)
	}

	// Single-probe calls report as batches of one.
	if r := rec.Probe(0, 1); r == nil {
		t.Fatal("single probe lost")
	}
	if batchCalls != 3 || lastLen != 1 {
		t.Fatalf("OnBatch after single probe: %d calls, len %d; want 3, 1", batchCalls, lastLen)
	}

	// Without OnBatch the per-probe fallback drives single probes only.
	spy2 := &batchSpy{Prober: sim}
	perProbe := 0
	rec2 := &Recorder{Prober: spy2, OnProbe: func(uint64, *packet.Reply) { perProbe++ }}
	rec2.ProbeBatch(specs)
	if len(spy2.probeBatches) != 0 {
		t.Fatalf("per-probe fallback forwarded batches: %v", spy2.probeBatches)
	}
	if perProbe != 3 {
		t.Fatalf("per-probe fallback: %d callbacks, want 3", perProbe)
	}
}

// TestTotalSentConcurrentReaders: TotalSent must be safe to read while
// batches are in flight and settle on the exact total.
func TestTotalSentConcurrentReaders(t *testing.T) {
	net, _ := fakeroute.BuildScenario(25, tSrc, tDst, fakeroute.SimplestDiamond)
	p := NewSimProber(net, tSrc, tDst)
	p.Retries = 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < 50; b++ {
			p.ProbeBatch([]Spec{{FlowID: uint16(b), TTL: 1}, {FlowID: uint16(b), TTL: 2}})
		}
	}()
	for {
		select {
		case <-done:
			if got := TotalSent(p); got != 100 {
				t.Fatalf("TotalSent %d, want 100", got)
			}
			return
		default:
			_ = TotalSent(p) // must not race with the sender
		}
	}
}
