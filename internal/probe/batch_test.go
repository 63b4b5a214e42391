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
	first := *replies[0] // the next call may reuse the batch's storage
	single := p.Probe(0, 1)
	if single == nil || single.From != first.From {
		t.Fatalf("single probe diverged from batch: %+v vs %+v", single, first)
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
