package mda

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// edge-completion scenario builders: each produces a diamond exercising
// one of the three Sec 2.3.1 cases.

// contractingDiamond: hop i (4 vertices) → hop i+1 (2 vertices): edge
// completion must trace forward from successor-less hop-i vertices.
func contractingDiamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(4).Converge(2).Converge(1).End(dst)
}

// expandingDiamond: hop i (2) → hop i+1 (4): backward tracing from
// predecessor-less hop-i+1 vertices.
func expandingDiamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(2).Spread(2).Converge(1).End(dst)
}

// equalDiamond: hop i (3) → hop i+1 (3) one-to-one: both directions.
func equalDiamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(3).Converge(3).Converge(1).End(dst)
}

func TestEdgeCompletionCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph
	}{
		{"contracting", contractingDiamond},
		{"expanding", expandingDiamond},
		{"equal", equalDiamond},
	}
	for _, c := range cases {
		full, switches := 0, 0
		const runs = 12
		for seed := uint64(0); seed < runs; seed++ {
			net, path := fakeroute.BuildScenario(seed, testSrc, testDst, c.build)
			p := probe.NewSimProber(net, testSrc, testDst)
			res := TraceLite(p, Config{Seed: seed}, 2)
			if res.SwitchedToMDA {
				// Not an error: when the hop-level stopping rule misses a
				// vertex (a few percent per run), the downstream edges
				// look asymmetric, the non-uniformity test fires and the
				// MDA recovers — the designed safety net.
				switches++
			}
			v, e := topo.SubgraphCoverage(res.Graph, path.Graph)
			if v == 1 && e == 1 {
				full++
			}
		}
		if switches > runs/3 {
			t.Errorf("%s: switch fired in %d/%d runs; expected only occasional stochastic misses",
				c.name, switches, runs)
		}
		// The stopping rule allows a small failure probability; demand a
		// large majority of complete discoveries.
		if full < runs-2 {
			t.Errorf("%s: full discovery in only %d/%d runs", c.name, full, runs)
		}
	}
}

// TestLiteNeverInventsTopology: like the MDA, the MDA-Lite must never
// report vertices or edges absent from the ground truth, across shapes
// and seeds (including switch-over paths).
func TestLiteNeverInventsTopology(t *testing.T) {
	builds := []func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph{
		fakeroute.SimplestDiamond, fakeroute.Fig1UnmeshedDiamond,
		fakeroute.Fig1MeshedDiamond, fakeroute.SymmetricDiamond,
		fakeroute.AsymmetricDiamond, fakeroute.MeshedDiamond48,
	}
	for seed := uint64(0); seed < 6; seed++ {
		for bi, build := range builds {
			net, path := fakeroute.BuildScenario(seed, testSrc, testDst, build)
			p := probe.NewSimProber(net, testSrc, testDst)
			res := TraceLite(p, Config{Seed: seed}, 2)
			v, e := topo.SubgraphCoverage(path.Graph, res.Graph)
			if v != 1 || e != 1 {
				t.Fatalf("seed %d build %d: invented topology\ntruth:\n%s\ngot:\n%s",
					seed, bi, path.Graph, res.Graph)
			}
		}
	}
}

// TestSwitchOverReusesState: the partial switch-over must not discard
// hops discovered before the offending diamond — total probes must stay
// well below lite-probes + full-MDA-from-scratch-probes.
func TestSwitchOverReusesState(t *testing.T) {
	// Topology: a benign wide diamond, a chain hop, then a meshed diamond
	// that triggers the switch.
	build := func(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
		return fakeroute.NewPathBuilder(alloc).
			Spread(8).Converge(1). // benign diamond
			Converge(1).
			Spread(3).Full(3).Converge(1). // meshed diamond
			End(dst)
	}
	var switched, mdaTotal, liteTotal uint64
	const runs = 8
	for seed := uint64(0); seed < runs; seed++ {
		netL, _ := fakeroute.BuildScenario(seed, testSrc, testDst, build)
		pL := probe.NewSimProber(netL, testSrc, testDst)
		pL.Retries = 0
		resL := TraceLite(pL, Config{Seed: seed}, 2)
		if resL.SwitchedToMDA {
			switched++
		}
		liteTotal += resL.Probes

		netM, _ := fakeroute.BuildScenario(seed, testSrc, testDst, build)
		pM := probe.NewSimProber(netM, testSrc, testDst)
		pM.Retries = 0
		resM := Trace(pM, Config{Seed: seed + 999})
		mdaTotal += resM.Probes
	}
	if switched < runs-1 {
		t.Fatalf("switch fired in only %d/%d runs", switched, runs)
	}
	// With state reuse the total should stay below ~1.5× the MDA cost;
	// a discard-and-restart implementation would land near 2×.
	if float64(liteTotal) > 1.5*float64(mdaTotal) {
		t.Fatalf("switch-over too expensive: lite=%d vs mda=%d", liteTotal, mdaTotal)
	}
}

// TestBackwardMeshingDetection: an expanding meshed pair (2 → 4 with an
// in-degree-2 vertex) must be caught by the backward meshing trace.
func TestBackwardMeshingDetection(t *testing.T) {
	build := func(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
		b := fakeroute.NewPathBuilder(alloc).Spread(2)
		g := b.Graph()
		prev := b.Current()
		// Hop 2: 4 vertices; one is fed by both hop-1 vertices (meshed by
		// the "fewer → more, in-degree ≥ 2" rule).
		var next []topo.VertexID
		for i := 0; i < 4; i++ {
			next = append(next, g.AddVertex(2, alloc.Next()))
		}
		g.AddEdge(prev[0], next[0])
		g.AddEdge(prev[0], next[1])
		g.AddEdge(prev[1], next[1]) // shared target: in-degree 2
		g.AddEdge(prev[1], next[2])
		g.AddEdge(prev[1], next[3])
		c := g.AddVertex(3, alloc.Next())
		for _, v := range next {
			g.AddEdge(v, c)
		}
		end := g.AddVertex(4, dst)
		g.AddEdge(c, end)
		return g
	}
	detected := 0
	const runs = 10
	for seed := uint64(0); seed < runs; seed++ {
		net, _ := fakeroute.BuildScenario(seed, testSrc, testDst, build)
		p := probe.NewSimProber(net, testSrc, testDst)
		res := TraceLite(p, Config{Seed: seed}, 2)
		if res.SwitchedToMDA {
			detected++
		}
	}
	// This topology is also width-asymmetric (successor counts 2 vs 3),
	// so a switch is near-certain; the point is that it fires at all via
	// either detector on an expanding pair.
	if detected < runs-1 {
		t.Fatalf("expanding meshed pair detected in only %d/%d runs", detected, runs)
	}
}

// TestLiteHandlesAllStarsGracefully: a network that never answers beyond
// the first hop must terminate quickly.
func TestLiteHandlesAllStarsGracefully(t *testing.T) {
	net := fakeroute.NewNetwork(71)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Converge(1).Star().Star().Star().Star().End(testDst)
	net.EnsureIfaces(g, testDst)
	net.AddPath(testSrc, testDst, g)
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := TraceLite(p, Config{Seed: 71}, 2)
	if res.ReachedDst {
		t.Fatal("reached destination through an all-star path?")
	}
	if res.Probes > 200 {
		t.Fatalf("all-star path consumed %d probes", res.Probes)
	}
}
