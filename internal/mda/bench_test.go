package mda

import (
	"fmt"
	"testing"
	"time"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// wideHopProber answers like a one-diamond path — a single vertex at hop
// 0, width vertices at hop 1 balanced per flow, the destination at hop 2 —
// without packets, a simulator or allocation, so that what a trace over it
// costs is the session's own bookkeeping. The divergence vertex needs
// n_width flows through it, which is where bookkeeping that re-scans the
// flows it has already used turns quadratic.
type wideHopProber struct {
	width   int
	replies []*packet.Reply // hop 0, the hop-1 vertices, the destination
	sent    uint64
	out     []*packet.Reply
}

func newWideHopProber(width int) *wideHopProber {
	p := &wideHopProber{width: width}
	for i := 0; i <= width; i++ {
		p.replies = append(p.replies, &packet.Reply{
			From: packet.AddrFrom4(10, 1, byte(i>>8), byte(i)), Type: packet.ICMPTypeTimeExceeded,
		})
	}
	p.replies = append(p.replies, &packet.Reply{
		From: testDst, Type: packet.ICMPTypeDestUnreachable, Code: packet.ICMPCodePortUnreachable,
	})
	return p
}

func (p *wideHopProber) Probe(flow uint16, ttl int) *packet.Reply {
	p.sent++
	switch {
	case ttl <= 1:
		return p.replies[0]
	case ttl == 2:
		return p.replies[1+int(nprand.FlowHash(7, uint64(flow))%uint64(p.width))]
	}
	return p.replies[p.width+1]
}

// ProbeBatch reuses its reply slice: the session reads it before the next
// batch, and the benchmark must not charge the tracer for the prober.
func (p *wideHopProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	p.out = p.out[:0]
	for _, sp := range specs {
		p.out = append(p.out, p.Probe(sp.FlowID, sp.TTL))
	}
	return p.out
}

func (p *wideHopProber) Echo(packet.Addr, uint16) *packet.Reply { return nil }
func (p *wideHopProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	return make([]*packet.Reply, len(specs))
}
func (p *wideHopProber) Sent() (uint64, uint64) { return p.sent, 0 }
func (p *wideHopProber) Dst() packet.Addr       { return testDst }

// traceWideHop runs one MDA trace over p's wide hop and checks it found
// the whole hop.
func traceWideHop(tb testing.TB, p *wideHopProber, seed uint64) *Result {
	res := Trace(p, Config{Seed: seed})
	if !res.ReachedDst || res.Graph.Width(1) != p.width {
		tb.Fatalf("width %d seed %d: reached=%t, hop 1 width %d", p.width, seed, res.ReachedDst, res.Graph.Width(1))
	}
	return res
}

// wideHopSeeds is the number of fixed seeds the wide-hop timings cycle
// through. Each of them finds the whole hop at every width; an arbitrary
// seed may not, since the MDA's stopping rule bounds a miss at 5 % per
// vertex, not at zero (seed 1684 misses one vertex at width 16).
const wideHopSeeds = 8

// BenchmarkMDAWideHop reports the session's cost per probe as the hop
// widens. Linear-time bookkeeping keeps ns/probe flat across widths.
// Iteration i traces seed i mod wideHopSeeds, so every b.N does the same
// work and the width check holds at any -benchtime.
func BenchmarkMDAWideHop(b *testing.B) {
	for _, width := range []int{16, 48, 96} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := newWideHopProber(width)
			b.ReportAllocs()
			var probes uint64
			for i := 0; i < b.N; i++ {
				probes += traceWideHop(b, p, uint64(i%wideHopSeeds)).Probes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}

// wideHopNsPerProbe is the fastest of several timed batches of traces:
// the minimum discards scheduler and GC noise, which only ever adds time.
func wideHopNsPerProbe(t *testing.T, width int) float64 {
	p := newWideHopProber(width)
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		var probes uint64
		start := time.Now()
		for seed := uint64(0); seed < wideHopSeeds; seed++ {
			probes += traceWideHop(t, p, seed).Probes
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(probes); rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestMDAWideHopCostIsLinear pins the complexity of the session
// bookkeeping: the per-probe cost over a 96-wide hop must stay under twice
// that over a 16-wide one. Choosing the n_k flows of a vertex by
// re-scanning its flow list made it O(n_k²) — about 5× at these widths
// (n_16 = 97, n_96 = 731).
func TestMDAWideHopCostIsLinear(t *testing.T) {
	narrow, wide := wideHopNsPerProbe(t, 16), wideHopNsPerProbe(t, 96)
	t.Logf("ns/probe: width 16 = %.1f, width 96 = %.1f (ratio %.2f)", narrow, wide, wide/narrow)
	if wide >= 2*narrow {
		t.Fatalf("per-probe cost grows with hop width: %.1f ns at width 96 vs %.1f ns at width 16", wide, narrow)
	}
}

// TestTraceAllocationBudget pins the allocations of one MDA trace over a
// fixed 48-wide hop (1241 probes in some 150 rounds, through a prober that
// allocates nothing). What remains is the graph, the result, the session
// and its per-round scratch: the flow tables come back from the pool a
// previous trace handed them to. 57 since the graph is a few flat slices,
// against 112 with a successor slice per vertex and an address map, 172
// with the flow tables growing by doubling in every trace and 619 with
// three slices per round and a map or two per vertex. Under -race the
// pool drops tables at random, so the bound there stays the one that held
// before the tables were pooled.
func TestTraceAllocationBudget(t *testing.T) {
	budget := 62.0
	if raceEnabled {
		budget = 280
	}
	p := newWideHopProber(48)
	allocs := testing.AllocsPerRun(10, func() { traceWideHop(t, p, 3) })
	t.Logf("allocs per 48-wide trace: %.0f", allocs)
	if allocs > budget {
		t.Fatalf("mda.Trace over a 48-wide hop: %.0f allocs, budget %.0f", allocs, budget)
	}
}

// testPrior is a TracePrior over given hop sets and links, without flow
// hints.
type testPrior struct {
	hops  [][]packet.Addr
	edges map[[2]packet.Addr]bool
}

func (pr testPrior) NumHops() int { return len(pr.hops) }
func (pr testPrior) HopAddrs(h int) ([]packet.Addr, bool) {
	if h < 0 || h >= len(pr.hops) || len(pr.hops[h]) == 0 {
		return nil, false
	}
	return pr.hops[h], true
}
func (pr testPrior) HasEdge(u, w packet.Addr) bool              { return pr.edges[[2]packet.Addr{u, w}] }
func (pr testPrior) FlowHints(h int, addr packet.Addr) []uint16 { return nil }

// newWidePrior expects exactly what a wideHopProber answers: its hop-0
// vertex, the width vertices of hop 1 and the destination, linked.
func newWidePrior(p *wideHopProber) testPrior {
	pr := testPrior{edges: make(map[[2]packet.Addr]bool)}
	pr.hops = [][]packet.Addr{{p.replies[0].From}, nil, {testDst}}
	for _, r := range p.replies[1 : p.width+1] {
		pr.hops[1] = append(pr.hops[1], r.From)
		pr.edges[[2]packet.Addr{p.replies[0].From, r.From}] = true
		pr.edges[[2]packet.Addr{r.From, testDst}] = true
	}
	return pr
}

// traceWideHopSeeded runs one MDA-Lite trace over p's wide hop, seeded
// with a prior that expects it, and checks every hop was confirmed.
func traceWideHopSeeded(tb testing.TB, p *wideHopProber, pr testPrior, seed uint64) *Result {
	res := TraceLite(p, Config{Seed: seed, Prior: pr}, DefaultPhi)
	if !res.ReachedDst || res.PriorAbandoned || res.PriorHopsConfirmed != 3 || res.Graph.Width(1) != p.width {
		tb.Fatalf("seed %d: reached=%t abandoned=%t confirmed %d hops, hop 1 width %d",
			seed, res.ReachedDst, res.PriorAbandoned, res.PriorHopsConfirmed, res.Graph.Width(1))
	}
	return res
}

// TestPriorConfirmationAllocationBudget pins the allocations of one
// prior-seeded MDA-Lite trace over the 48-wide hop, all three hops
// settled by confirmation (hop 1's takes some 200 probes). Confirmation
// keeps its expected-address flags and its tried-flow set in the
// session's pooled tables, so it allocates nothing per hop, and what
// remains is the graph, the result, the session and its round scratch:
// 46 since the graph is a few flat slices, against 101 with a successor
// slice per vertex and an address map and 118 when each confirmed hop
// built three maps.
func TestPriorConfirmationAllocationBudget(t *testing.T) {
	budget := 50.0
	if raceEnabled {
		budget = 280
	}
	p := newWideHopProber(48)
	pr := newWidePrior(p)
	allocs := testing.AllocsPerRun(10, func() { traceWideHopSeeded(t, p, pr, 3) })
	t.Logf("allocs per prior-seeded 48-wide trace: %.0f", allocs)
	if allocs > budget {
		t.Fatalf("prior-seeded mda.TraceLite over a 48-wide hop: %.0f allocs, budget %.0f", allocs, budget)
	}
}

// BenchmarkAblationFlowReuse contrasts the MDA-Lite's reuse of
// previous-hop flow identifiers against minting fresh flows at every hop:
// reuse seeds edges for free, fresh flows push that work onto the
// deterministic edge-completion step.
func BenchmarkAblationFlowReuse(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "reuse"
		if disable {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			var probes uint64
			for i := 0; i < b.N; i++ {
				net, _ := fakeroute.BuildScenario(uint64(i), testSrc, testDst, fakeroute.SymmetricDiamond)
				p := probe.NewSimProber(net, testSrc, testDst)
				p.Retries = 0
				res := TraceLite(p, Config{Seed: uint64(i), disableFlowReuse: disable}, 2)
				probes += res.Probes
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/trace")
		})
	}
}
