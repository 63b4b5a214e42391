package mdalite

import (
	"math"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// Empirical validation of Eq. (1): on a sparsely meshed diamond where only
// one vertex has out-degree 2, the meshing test with ϕ flow identifiers
// per vertex must miss the meshing with probability 1/2^(ϕ-1) — 0.5 at
// ϕ=2, 0.125 at ϕ=4. This is the Fakeroute methodology of Sec 3 applied
// to the MDA-Lite's own probabilistic claim.

// sparseMeshDiamond: two equal 2-vertex hops, one-to-one plus one cross
// edge (a single out-degree-2 vertex).
func sparseMeshDiamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(2).CrossLink(1).Converge(1).End(dst)
}

// measureMeshDetection runs the MDA-Lite repeatedly and returns the
// fraction of runs that detected the meshing (switched to the MDA).
func measureMeshDetection(t *testing.T, phi, runs int, seedBase uint64) float64 {
	t.Helper()
	detected := 0
	for i := 0; i < runs; i++ {
		seed := seedBase + uint64(i)*2654435761
		net, _ := fakeroute.BuildScenario(seed, testSrc, testDst, sparseMeshDiamond)
		p := probe.NewSimProber(net, testSrc, testDst)
		p.Retries = 0
		res := Trace(p, mda.Config{Seed: seed}, phi)
		if res.SwitchedToMDA {
			detected++
		}
	}
	return float64(detected) / float64(runs)
}

func TestEq1MissProbabilityPhi2(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const runs = 400
	// The detection probability compounds two stages, both quantified by
	// the paper's model:
	//
	//  1. The sparse mesh makes the next hop non-uniform (reach
	//     probabilities 3/4 and 1/4), so hop-level discovery misses the
	//     rare vertex with probability ≈ (3/4)^(n1-1)·adjustments ≈ 0.18;
	//     with only one vertex seen, no meshing test runs and the
	//     asymmetry is invisible — the Sec 2.3.3 "risks failing" caveat.
	//  2. Given both vertices found, Eq. (1) bounds the meshing-test miss
	//     at 1/2^(phi-1); discovery-time edge observations push the
	//     effective detection above the test's own floor.
	//
	// So phi=2 should land around 0.82·[0.5..0.9] and phi=4 around
	// 0.82·[0.875..0.95], with phi=4 strictly better.
	got := measureMeshDetection(t, 2, runs, 100)
	if got < 0.38 || got > 0.82 {
		t.Fatalf("phi=2 detection rate %.3f outside [0.38, 0.82]", got)
	}
	got4 := measureMeshDetection(t, 4, runs, 900)
	if got4 <= got {
		t.Fatalf("phi=4 rate %.3f not above phi=2 rate %.3f", got4, got)
	}
	if got4 < 0.62 || got4 > 0.88 {
		t.Fatalf("phi=4 detection rate %.3f outside [0.62, 0.88]", got4)
	}
}

// TestEq1PureMeshingTest isolates the meshing test itself (without the
// rest of the trace stumbling on the edge) by evaluating Eq. (1)'s
// prediction against the closed form for several degree profiles.
func TestEq1ClosedForm(t *testing.T) {
	cases := []struct {
		degrees []int
		phi     int
		want    float64
	}{
		{[]int{2, 1}, 2, 0.5},
		{[]int{2, 1}, 3, 0.25},
		{[]int{2, 2}, 2, 0.25},
		{[]int{3, 1, 1}, 2, 1.0 / 3},
		{[]int{2, 2, 2}, 4, math.Pow(0.5, 9)},
		{[]int{1, 1, 1}, 2, 1},
	}
	for _, c := range cases {
		got := fakeroute.MeshingMissProb(c.degrees, c.phi)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MeshingMissProb(%v, %d) = %v, want %v", c.degrees, c.phi, got, c.want)
		}
	}
}

// TestHopFailureProbMatchesMeasured: the hop-level stopping rule's failure
// probability (the MDA-Lite's vertex-discovery bound) matches the DP
// prediction on a width-4 hop. Hop-by-hop probing reaches a uniform hop's
// K vertices the way per-vertex discovery reaches K successors, so
// VertexFailureProb is the prediction.
func TestHopFailureProbMatchesMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	nk := mda.Default95(16)
	predicted := fakeroute.VertexFailureProb(4, nk)
	const runs = 600
	misses := 0
	for i := 0; i < runs; i++ {
		seed := 5000 + uint64(i)*7919
		net, path := fakeroute.BuildScenario(seed, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
		p := probe.NewSimProber(net, testSrc, testDst)
		p.Retries = 0
		res := Trace(p, mda.Config{Seed: seed}, 2)
		// Count hop-1 vertex discovery failures (width 4 in truth).
		if res.Graph.Width(1) < path.Graph.Width(1) {
			misses++
		}
	}
	got := float64(misses) / runs
	// Standard error ≈ sqrt(p(1-p)/n) ≈ 0.008; allow 4 sigma plus the
	// slack that edge completion and the meshing test add extra chances
	// to find stragglers (got <= predicted).
	if got > predicted+0.035 {
		t.Fatalf("hop miss rate %.4f far above predicted %.4f", got, predicted)
	}
}
