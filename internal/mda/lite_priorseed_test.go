// Prior-seeded trace tests live in an external test package: the prior
// package imports mda, so an in-package import would cycle.
package mda_test

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

var (
	seedSrc = packet.MustParseAddr("192.0.2.1")
	seedDst = packet.MustParseAddr("198.51.100.77")
)

// tracedSession runs an unseeded MDA-Lite trace and returns both the
// result and the session, so tests can capture flow landings.
func tracedSession(net *fakeroute.Network, seed uint64) (*mda.Result, *mda.Session) {
	p := probe.NewSimProber(net, seedSrc, seedDst)
	s := mda.NewSession(p, mda.Config{Seed: seed})
	return s.RunLite(2), s
}

func TestPriorSeededRetraceSavesProbes(t *testing.T) {
	net, path := fakeroute.BuildScenario(11, seedSrc, seedDst, fakeroute.SymmetricDiamond)
	first, s1 := tracedSession(net, 11)
	if !first.ReachedDst || first.SwitchedToMDA {
		t.Fatalf("unseeded baseline trace: reached=%t switched=%t", first.ReachedDst, first.SwitchedToMDA)
	}

	pp := prior.FromGraph(seedSrc, seedDst, first.Graph)
	pp.CaptureLandings(s1)

	p2 := probe.NewSimProber(net, seedSrc, seedDst)
	res := mda.TraceLite(p2, mda.Config{Seed: 12, Prior: pp}, 2)
	if !res.ReachedDst {
		t.Fatal("prior-seeded re-trace did not reach the destination")
	}
	if res.PriorAbandoned {
		t.Fatal("prior abandoned on an unchanged route")
	}
	if res.PriorHopsConfirmed == 0 {
		t.Fatal("no hops confirmed from the prior")
	}
	v, e := topo.SubgraphCoverage(res.Graph, path.Graph)
	if v != 1 || e != 1 {
		t.Fatalf("seeded coverage v=%.2f e=%.2f\n%s", v, e, res.Graph)
	}
	if res.Probes >= first.Probes {
		t.Fatalf("prior-seeded re-trace spent %d probes, unseeded %d: no savings", res.Probes, first.Probes)
	}
	// The confirmation pass stops at coverage, not at the stopping
	// point, so the saving on an unchanged route should be substantial.
	if float64(res.Probes) > 0.7*float64(first.Probes) {
		t.Fatalf("prior-seeded re-trace spent %d probes vs %d unseeded: expected >30%% savings", res.Probes, first.Probes)
	}
}

func TestPriorMismatchFallsBackToFullDiscovery(t *testing.T) {
	// Prior from one topology, re-trace over a different one: the
	// confirmation pass must detect the change, abandon the prior, and
	// recover the new topology in full.
	oldNet, _ := fakeroute.BuildScenario(21, seedSrc, seedDst, fakeroute.SimplestDiamond)
	first, _ := tracedSession(oldNet, 21)

	pp := prior.FromGraph(seedSrc, seedDst, first.Graph)
	newNet, newPath := fakeroute.BuildScenario(22, seedSrc, seedDst, fakeroute.SymmetricDiamond)
	p := probe.NewSimProber(newNet, seedSrc, seedDst)
	res := mda.TraceLite(p, mda.Config{Seed: 23, Prior: pp}, 2)
	if !res.PriorAbandoned {
		t.Fatal("route change not detected: prior never abandoned")
	}
	if !res.ReachedDst {
		t.Fatal("fallback trace did not reach the destination")
	}
	v, e := topo.SubgraphCoverage(res.Graph, newPath.Graph)
	if v != 1 || e != 1 {
		t.Fatalf("fallback coverage v=%.2f e=%.2f\n%s", v, e, res.Graph)
	}
}

func TestPriorMeshedPairStillSwitches(t *testing.T) {
	// A prior recording a meshed pair must not suppress the switch to
	// the full MDA: the free graph-degree check replaces the phi-flow
	// meshing probes, and recall stays at the unseeded level.
	net, path := fakeroute.BuildScenario(31, seedSrc, seedDst, fakeroute.Fig1MeshedDiamond)
	p1 := probe.NewSimProber(net, seedSrc, seedDst)
	first := mda.TraceLite(p1, mda.Config{Seed: 31, Stop: mda.VeitchTable1(64)}, 2)
	if !first.SwitchedToMDA {
		t.Skip("meshing not detected in the unseeded pass (stochastic miss)")
	}

	pp := prior.FromGraph(seedSrc, seedDst, first.Graph)
	p2 := probe.NewSimProber(net, seedSrc, seedDst)
	res := mda.TraceLite(p2, mda.Config{Seed: 32, Stop: mda.VeitchTable1(64), Prior: pp}, 2)
	if !res.SwitchedToMDA {
		t.Fatal("prior-seeded trace failed to switch to MDA on a meshed pair")
	}
	v, e := topo.SubgraphCoverage(res.Graph, path.Graph)
	if v != 1 || e != 1 {
		t.Fatalf("post-switch coverage v=%.2f e=%.2f", v, e)
	}
}
