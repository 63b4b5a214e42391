package mda

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

func liteTrace(t *testing.T, seed uint64, phi int, build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph) (*Result, *topo.Graph) {
	t.Helper()
	net, path := fakeroute.BuildScenario(seed, testSrc, testDst, build)
	p := probe.NewSimProber(net, testSrc, testDst)
	res := TraceLite(p, Config{Seed: seed}, phi)
	return res, path.Graph
}

func TestLiteSimplestDiamond(t *testing.T) {
	res, truth := liteTrace(t, 1, 2, fakeroute.SimplestDiamond)
	if !res.ReachedDst {
		t.Fatal("destination not reached")
	}
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f\n%s", v, e, res.Graph)
	}
	if res.SwitchedToMDA {
		t.Fatal("unexpected switch to MDA on a uniform unmeshed diamond")
	}
}

func TestLiteWideDiamondNoSwitch(t *testing.T) {
	res, truth := liteTrace(t, 2, 2, fakeroute.MaxLength2Diamond)
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f", v, e)
	}
	if res.SwitchedToMDA {
		t.Fatal("max-length-2 diamond must not trigger a switch")
	}
}

func TestLiteSymmetricDiamondNoSwitch(t *testing.T) {
	res, truth := liteTrace(t, 3, 2, fakeroute.SymmetricDiamond)
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage v=%.2f e=%.2f\ntruth:\n%s\ngot:\n%s", v, e, truth, res.Graph)
	}
	if res.SwitchedToMDA {
		t.Fatal("symmetric unmeshed diamond must not trigger a switch")
	}
}

func TestLiteMeshedDiamondSwitches(t *testing.T) {
	// The Fig 1 meshed diamond (4 vertices fully linked to 2) must be
	// detected as meshed with overwhelming probability: the miss
	// probability with phi=2 is (1/2)^4 per Eq. (1) on the forward trace,
	// and the seeded run below detects it. The post-switch MDA is run
	// with the tighter Veitch table so its own stochastic failure
	// probability (≈4·2⁻⁹) cannot flake the full-coverage assertion.
	net, path := fakeroute.BuildScenario(4, testSrc, testDst, fakeroute.Fig1MeshedDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	res := TraceLite(p, Config{Seed: 4, Stop: VeitchTable1(64)}, 2)
	truth := path.Graph
	if !res.SwitchedToMDA {
		t.Fatal("meshing not detected on Fig 1 meshed diamond")
	}
	v, e := topo.SubgraphCoverage(res.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("post-switch coverage v=%.2f e=%.2f", v, e)
	}
}

func TestLiteMeshed48Switches(t *testing.T) {
	res, truth := liteTrace(t, 5, 2, fakeroute.MeshedDiamond48)
	if !res.SwitchedToMDA {
		t.Fatal("meshing not detected on the 48-wide meshed diamond")
	}
	v, _ := topo.SubgraphCoverage(res.Graph, truth)
	if v < 0.98 {
		t.Fatalf("post-switch vertex coverage %.3f too low", v)
	}
}

func TestLiteAsymmetricSwitches(t *testing.T) {
	res, truth := liteTrace(t, 6, 2, fakeroute.AsymmetricDiamond)
	if !res.SwitchedToMDA {
		t.Fatal("width asymmetry not detected")
	}
	v, _ := topo.SubgraphCoverage(res.Graph, truth)
	if v < 0.95 {
		t.Fatalf("post-switch vertex coverage %.3f too low", v)
	}
}

func TestLiteCheaperThanMDAOnUniformDiamonds(t *testing.T) {
	// Sec 2.4.1: on max-length-2 and symmetric diamonds the MDA-Lite
	// economizes roughly 40% of the MDA's probes. Require any saving on
	// every seed and substantial average saving.
	for _, build := range []func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph{
		fakeroute.MaxLength2Diamond, fakeroute.SymmetricDiamond,
	} {
		var liteTotal, mdaTotal uint64
		for seed := uint64(0); seed < 10; seed++ {
			netL, _ := fakeroute.BuildScenario(seed, testSrc, testDst, build)
			pL := probe.NewSimProber(netL, testSrc, testDst)
			pL.Retries = 0
			resL := TraceLite(pL, Config{Seed: seed}, 2)
			if resL.SwitchedToMDA {
				t.Fatalf("seed %d: unexpected switch", seed)
			}
			netM, _ := fakeroute.BuildScenario(seed, testSrc, testDst, build)
			pM := probe.NewSimProber(netM, testSrc, testDst)
			pM.Retries = 0
			resM := Trace(pM, Config{Seed: seed + 1000})
			liteTotal += resL.Probes
			mdaTotal += resM.Probes
		}
		if liteTotal >= mdaTotal {
			t.Fatalf("MDA-Lite used %d probes, MDA %d: no saving", liteTotal, mdaTotal)
		}
		saving := 1 - float64(liteTotal)/float64(mdaTotal)
		if saving < 0.15 {
			t.Errorf("probe saving %.2f below 15%%", saving)
		}
	}
}

func TestLitePhi4CostsMoreThanPhi2(t *testing.T) {
	// phi only matters when a meshing test runs (adjacent multi-vertex
	// hops); the symmetric diamond has them.
	var p2, p4 uint64
	for seed := uint64(0); seed < 8; seed++ {
		net2, _ := fakeroute.BuildScenario(seed, testSrc, testDst, fakeroute.SymmetricDiamond)
		pr2 := probe.NewSimProber(net2, testSrc, testDst)
		TraceLite(pr2, Config{Seed: seed}, 2)
		p2 += probe.TotalSent(pr2)
		net4, _ := fakeroute.BuildScenario(seed, testSrc, testDst, fakeroute.SymmetricDiamond)
		pr4 := probe.NewSimProber(net4, testSrc, testDst)
		TraceLite(pr4, Config{Seed: seed}, 4)
		p4 += probe.TotalSent(pr4)
	}
	if p4 <= p2 {
		t.Fatalf("phi=4 sent %d, phi=2 sent %d: expected more probing at phi=4", p4, p2)
	}
}

func TestMeshingMissProbEq1(t *testing.T) {
	// Eq. (1): V = two vertices with 2 successors each, phi = 2:
	// miss probability = (1/2)·(1/2) = 0.25.
	got := fakeroute.MeshingMissProb([]int{2, 2}, 2)
	if got != 0.25 {
		t.Fatalf("Eq.1 = %v, want 0.25", got)
	}
	if got := fakeroute.MeshingMissProb([]int{2, 2}, 3); got != 0.0625 {
		t.Fatalf("Eq.1 phi=3 = %v, want 0.0625", got)
	}
	if got := fakeroute.MeshingMissProb([]int{1, 1}, 2); got != 1 {
		t.Fatalf("Eq.1 no meshing = %v, want 1", got)
	}
}
