package mda

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"slices"
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

// shortPathProber probes shortLossyPath on a freshly built network.
func shortPathProber() probe.Prober {
	net, _ := fakeroute.BuildScenario(5, testSrc, testDst, shortLossyPath)
	net.LossProb = 0.1
	return probe.NewSimProber(net, testSrc, testDst)
}

// shortPathOutcome traces shortLossyPath on a freshly built network and
// renders what the trace produced: its graph, probe count, confirmed
// hops and probe order.
func shortPathOutcome(trace func(probe.Prober) *Result) string {
	o := &orderProber{Prober: shortPathProber(), h: fnv.New64a()}
	res := trace(o)
	return fmt.Sprintf("%sprobes %d reached %t confirmed %d order %016x",
		res.Graph, res.Probes, res.ReachedDst, res.PriorHopsConfirmed, o.h.Sum64())
}

// newGraphPrior expects what g holds: each hop's non-star addresses,
// sorted, and g's links.
func newGraphPrior(g *topo.Graph) testPrior {
	pr := testPrior{edges: make(map[[2]packet.Addr]bool)}
	for h := 0; h < g.NumHops(); h++ {
		var addrs []packet.Addr
		for _, v := range g.Hop(h) {
			if a := g.V(v).Addr; a != topo.StarAddr {
				addrs = append(addrs, a)
			}
			for _, w := range g.Succ(v) {
				pr.edges[[2]packet.Addr{g.V(v).Addr, g.V(w).Addr}] = true
			}
		}
		slices.Sort(addrs)
		pr.hops = append(pr.hops, addrs)
	}
	return pr
}

// TestPooledTablesCarryNothing: a trace run on the tables 48-wide traces,
// unseeded and prior-seeded, handed back to the pool gives what it gives
// on new tables, once two collections have drained the pool — graph,
// probe count, confirmed hops and probe order alike, for the MDA, the
// MDA-Lite and the MDA-Lite seeded from an earlier trace's graph.
func TestPooledTablesCarryNothing(t *testing.T) {
	first := TraceLite(shortPathProber(), Config{Seed: 12}, DefaultPhi)
	prior := newGraphPrior(first.Graph)
	for _, c := range []struct {
		name  string
		trace func(probe.Prober) *Result
	}{
		{"mda", func(p probe.Prober) *Result { return Trace(p, Config{Seed: 11}) }},
		{"mda-lite", func(p probe.Prober) *Result { return TraceLite(p, Config{Seed: 11}, DefaultPhi) }},
		{"mda-lite-prior", func(p probe.Prober) *Result { return TraceLite(p, Config{Seed: 11, Prior: prior}, DefaultPhi) }},
	} {
		wide := newWideHopProber(48)
		traceWideHop(t, wide, 3)
		// Seed 11 mints the flows the checked traces mint first, so a
		// tried-flow set the pool kept would skip them.
		traceWideHopSeeded(t, wide, newWidePrior(wide), 11)
		reused := shortPathOutcome(c.trace)
		runtime.GC()
		runtime.GC()
		fresh := shortPathOutcome(c.trace)
		if reused != fresh {
			t.Fatalf("%s on pooled tables:\n%s\non new tables:\n%s", c.name, reused, fresh)
		}
	}
}
