package mda

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

func TestPairAsymmetricAllocFree(t *testing.T) {
	// The detector runs on every hop of the trace loop; it must not
	// allocate per-hop count slices.
	g := topo.New()
	u0 := g.AddVertex(0, 1)
	a, b := g.AddVertex(1, 2), g.AddVertex(1, 3)
	c, d := g.AddVertex(2, 4), g.AddVertex(2, 5)
	g.AddEdge(u0, a)
	g.AddEdge(u0, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(b, c)
	var sink bool
	allocs := testing.AllocsPerRun(100, func() {
		sink = pairAsymmetric(g, 1)
	})
	if allocs != 0 {
		t.Fatalf("pairAsymmetric allocates %.1f times per run, want 0", allocs)
	}
	if !sink {
		t.Fatal("asymmetric pair not detected")
	}
}

func TestCompleteEdgesStableBeforeCapNotTruncated(t *testing.T) {
	// A pair that stabilizes before maxEdgeCompletionIters must report
	// zero truncations: the counter records genuine cap exhaustion only.
	for _, build := range []func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph{
		fakeroute.SimplestDiamond, fakeroute.SymmetricDiamond, fakeroute.MaxLength2Diamond,
	} {
		net, _ := fakeroute.BuildScenario(41, testSrc, testDst, build)
		p := probe.NewSimProber(net, testSrc, testDst)
		res := TraceLite(p, Config{Seed: 41}, 2)
		if res.EdgeCompletionTruncated != 0 {
			t.Fatalf("stable topology reported %d edge-completion truncations", res.EdgeCompletionTruncated)
		}
	}
}
