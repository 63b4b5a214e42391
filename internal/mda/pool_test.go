package mda

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// orderProber hashes the probe sequence a tracer sends: every TTL and
// flow, and a marker with the length of each batch.
type orderProber struct {
	probe.Prober
	h hash.Hash64
}

func (o *orderProber) Probe(flow uint16, ttl int) *packet.Reply {
	o.h.Write([]byte{0xff, byte(ttl), byte(flow >> 8), byte(flow)})
	return o.Prober.Probe(flow, ttl)
}

func (o *orderProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	o.h.Write([]byte{0xfe, byte(len(specs) >> 8), byte(len(specs))})
	for _, sp := range specs {
		o.h.Write([]byte{byte(sp.TTL), byte(sp.FlowID >> 8), byte(sp.FlowID)})
	}
	return o.Prober.ProbeBatch(specs)
}

// shortLossyPath is a short path that touches every pooled table: a
// two-way split, a silent hop whose flows a star adopts, a second split
// and the destination, over a network that drops some replies.
func shortLossyPath(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(2).Star().Spread(2).Converge(1).End(dst)
}

// shortPathOutcome traces shortLossyPath on a freshly built network and
// renders what the trace produced: its graph, probe count and probe order.
func shortPathOutcome(trace func(probe.Prober) *Result) string {
	net, _ := fakeroute.BuildScenario(5, testSrc, testDst, shortLossyPath)
	net.LossProb = 0.1
	o := &orderProber{Prober: probe.NewSimProber(net, testSrc, testDst), h: fnv.New64a()}
	res := trace(o)
	return fmt.Sprintf("%sprobes %d reached %t order %016x", res.Graph, res.Probes, res.ReachedDst, o.h.Sum64())
}

// TestPooledTablesCarryNothing: a trace run on the tables a 48-wide trace
// handed back to the pool gives what it gives on new tables, once two
// collections have drained the pool — graph, probe count and probe order
// alike, for the MDA and the MDA-Lite.
func TestPooledTablesCarryNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		trace func(probe.Prober) *Result
	}{
		{"mda", func(p probe.Prober) *Result { return Trace(p, Config{Seed: 11}) }},
		{"mda-lite", func(p probe.Prober) *Result { return TraceLite(p, Config{Seed: 11}, DefaultPhi) }},
	} {
		traceWideHop(t, newWideHopProber(48), 3)
		reused := shortPathOutcome(c.trace)
		runtime.GC()
		runtime.GC()
		fresh := shortPathOutcome(c.trace)
		if reused != fresh {
			t.Fatalf("%s on pooled tables:\n%s\non new tables:\n%s", c.name, reused, fresh)
		}
	}
}
