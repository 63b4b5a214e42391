package mda

import (
	"fmt"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

var (
	testSrc = packet.MustParseAddr("192.0.2.1")
	testDst = packet.MustParseAddr("198.51.100.77")
)

// describeWidths summarizes a graph's hop widths, "1-4-2-1", for
// failure messages.
func describeWidths(g *topo.Graph) string {
	s := ""
	for h := 0; h < g.NumHops(); h++ {
		if h > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", g.Width(h))
	}
	return s
}

func traceShape(t *testing.T, seed uint64, build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph) (*Result, *topo.Graph, *probe.SimProber) {
	t.Helper()
	net, path := fakeroute.BuildScenario(seed, testSrc, testDst, build)
	p := probe.NewSimProber(net, testSrc, testDst)
	res := Trace(p, Config{Seed: seed})
	return res, path.Graph, p
}

func TestStoppingPointsDefault95(t *testing.T) {
	nk := Default95(8)
	want := []int{1, 6, 11, 16, 21, 27, 33, 39, 45}
	for k, w := range want {
		if nk[k] != w {
			t.Errorf("n_%d = %d, want %d", k, nk[k], w)
		}
	}
}

func TestStoppingPointsVeitchTable1(t *testing.T) {
	nk := VeitchTable1(4)
	if nk[1] != 9 || nk[2] != 17 || nk[4] != 33 {
		t.Fatalf("Veitch table = %v, want n1=9 n2=17 n4=33", nk)
	}
}

func TestStopExtendsTable(t *testing.T) {
	nk := Default95(4)
	if got := stopPoint(nk, 4); got != nk[4] {
		t.Fatalf("Stop in range = %d, want %d", got, nk[4])
	}
	inc := nk[4] - nk[3]
	if got := stopPoint(nk, 6); got != nk[4]+2*inc {
		t.Fatalf("stopPoint(6) = %d, want %d", got, nk[4]+2*inc)
	}
}

func TestMDASimplestDiamond(t *testing.T) {
	res, truth, _ := traceShape(t, 1, fakeroute.SimplestDiamond)
	if !res.ReachedDst {
		t.Fatal("destination not reached")
	}
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f, want full\ntruth:\n%s\ngot:\n%s",
			v, e, truth, res.Graph)
	}
}

func TestMDAFig1Unmeshed(t *testing.T) {
	res, truth, _ := traceShape(t, 2, fakeroute.Fig1UnmeshedDiamond)
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f\ntruth:\n%s\ngot:\n%s", v, e, truth, res.Graph)
	}
	if res.Graph.Width(1) != 4 || res.Graph.Width(2) != 2 {
		t.Fatalf("widths: %s", describeWidths(res.Graph))
	}
}

func TestMDAFig1Meshed(t *testing.T) {
	res, truth, _ := traceShape(t, 3, fakeroute.Fig1MeshedDiamond)
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f\ntruth:\n%s\ngot:\n%s", v, e, truth, res.Graph)
	}
}

func TestMDAWideDiamond(t *testing.T) {
	res, truth, _ := traceShape(t, 4, fakeroute.MaxLength2Diamond)
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f (widths %s)", v, e, describeWidths(res.Graph))
	}
}

func TestMDAProbeAccountingFig1(t *testing.T) {
	// Sec 2.1: with the Veitch Table 1 stopping points, discovering the
	// unmeshed Fig 1 diamond costs 11·n1 + δ = 99 + δ probes. Check the
	// total lands in a sane band above the floor.
	net, _ := fakeroute.BuildScenario(10, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := Trace(p, Config{Seed: 10, Stop: VeitchTable1(16)})
	if !res.ReachedDst {
		t.Fatal("destination not reached")
	}
	if res.Probes < 99 {
		t.Fatalf("sent %d probes, below the 99-probe floor", res.Probes)
	}
	if res.Probes > 99+120 {
		t.Fatalf("sent %d probes, node-control overhead implausibly high", res.Probes)
	}
}

func TestSingleFlowTracesOnePath(t *testing.T) {
	net, _ := fakeroute.BuildScenario(5, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	res := TraceSingleFlow(p, Config{Seed: 5})
	if !res.ReachedDst {
		t.Fatal("destination not reached")
	}
	for h := 0; h < res.Graph.NumHops(); h++ {
		if res.Graph.Width(h) != 1 {
			t.Fatalf("single-flow trace found %d vertices at hop %d", res.Graph.Width(h), h)
		}
	}
	if res.Probes > 16 {
		t.Fatalf("single flow sent %d probes, want a handful", res.Probes)
	}
}

func TestMDAWithLoss(t *testing.T) {
	net, _ := fakeroute.BuildScenario(6, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	net.LossProb = 0.05
	p := probe.NewSimProber(net, testSrc, testDst)
	res := Trace(p, Config{Seed: 6})
	if !res.ReachedDst {
		t.Fatal("destination not reached under 5% loss")
	}
}

func TestVertexFailureProbSimplest(t *testing.T) {
	// The Sec 3 worked example: K=2 with the 95% table (n1=6) fails with
	// probability exactly (1/2)^5 = 0.03125.
	got := fakeroute.VertexFailureProb(2, Default95(8))
	if diff := got - 0.03125; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("failure prob = %v, want 0.03125", got)
	}
}
