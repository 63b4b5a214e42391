package mmlpt

// Integration tests over the public API: each test exercises the library
// the way a downstream user would, end to end across packet crafting, the
// simulator, the algorithms and alias resolution.

import (
	"testing"

	"mmlpt/internal/nprand"
	"mmlpt/internal/topo"
)

var (
	itSrc = MustParseAddr("192.0.2.1")
	itDst = MustParseAddr("198.51.100.77")
)

func TestPublicAPITraceDefaults(t *testing.T) {
	net, truth := BuildScenario(1, itSrc, itDst, Fig1UnmeshedDiamond)
	p := NewSimProber(net, itSrc, itDst)
	res := Trace(p, Options{Seed: 1})
	if !res.IP.ReachedDst {
		t.Fatal("not reached")
	}
	v, e := topo.SubgraphCoverage(res.IP.Graph, truth)
	if v != 1 || e != 1 {
		t.Fatalf("coverage %v %v", v, e)
	}
	if res.Probes() == 0 {
		t.Fatal("no probes counted")
	}
	if res.Multilevel != nil {
		t.Fatal("multilevel result without multilevel algorithm")
	}
}

func TestPublicAPIAlgorithmSpread(t *testing.T) {
	// All four algorithms must run and return sane results on a common
	// topology; their probe budgets must be ordered single < lite < mda.
	budgets := map[Algorithm]uint64{}
	for _, algo := range []Algorithm{AlgoSingleFlow, AlgoMDALite, AlgoMDA, AlgoMultilevel} {
		net, _ := BuildScenario(2, itSrc, itDst, SymmetricDiamond)
		p := NewSimProber(net, itSrc, itDst)
		res := Trace(p, Options{Algorithm: algo, Seed: 2})
		if !res.IP.ReachedDst {
			t.Fatalf("algo %d did not reach", algo)
		}
		budgets[algo] = res.Probes()
	}
	if !(budgets[AlgoSingleFlow] < budgets[AlgoMDALite] && budgets[AlgoMDALite] < budgets[AlgoMDA]) {
		t.Fatalf("budget ordering violated: single=%d lite=%d mda=%d",
			budgets[AlgoSingleFlow], budgets[AlgoMDALite], budgets[AlgoMDA])
	}
	if budgets[AlgoMultilevel] <= budgets[AlgoMDALite] {
		t.Fatalf("multilevel (%d) must cost more than the bare lite trace (%d)",
			budgets[AlgoMultilevel], budgets[AlgoMDALite])
	}
}

func TestPublicAPIFailureBoundOption(t *testing.T) {
	nk := StoppingPoints(0.05, 4)
	if nk[1] != 6 {
		t.Fatalf("n1 = %d", nk[1])
	}
	// A tighter bound must probe more.
	var loose, tight uint64
	for seed := uint64(0); seed < 6; seed++ {
		netL, _ := BuildScenario(seed, itSrc, itDst, MaxLength2Diamond)
		pL := NewSimProber(netL, itSrc, itDst)
		loose += Trace(pL, Options{Algorithm: AlgoMDA, Seed: seed, FailureBound: 0.05}).Probes()
		netT, _ := BuildScenario(seed, itSrc, itDst, MaxLength2Diamond)
		pT := NewSimProber(netT, itSrc, itDst)
		tight += Trace(pT, Options{Algorithm: AlgoMDA, Seed: seed, FailureBound: 0.005}).Probes()
	}
	if tight <= loose {
		t.Fatalf("tighter bound cheaper: %d <= %d", tight, loose)
	}
}

func TestPublicAPIMultilevel(t *testing.T) {
	// Hand-built network with two 2-interface routers at the wide hop.
	net := NewNetwork(3)
	alloc := NewAddrAllocator(MustParseAddr("10.2.0.1"))
	g := NewPathBuilder(alloc).Spread(4).Converge(1).End(itDst)
	hop1 := g.Hop(1)
	rA, rB := net.NewRouter(), net.NewRouter()
	for i, id := range hop1 {
		r := rA
		if i >= 2 {
			r = rB
		}
		net.AddIface(r, g.V(id).Addr)
	}
	net.EnsureIfaces(g, itDst)
	net.AddPath(itSrc, itDst, g)

	p := NewSimProber(net, itSrc, itDst)
	res := Trace(p, Options{Algorithm: AlgoMultilevel, Seed: 3, Rounds: 5})
	if res.Multilevel == nil {
		t.Fatal("no multilevel result")
	}
	if res.Multilevel.RouterGraph.Width(1) != 2 {
		t.Fatalf("router width %d, want 2", res.Multilevel.RouterGraph.Width(1))
	}
	if len(res.Multilevel.Rounds) != 6 {
		t.Fatalf("snapshots %d", len(res.Multilevel.Rounds))
	}
}

func TestPublicAPIGraphFailureProb(t *testing.T) {
	_, truth := BuildScenario(4, itSrc, itDst, SimplestDiamond)
	got := GraphFailureProb(truth, StoppingPoints(0.05, 16))
	if got != 0.03125 {
		t.Fatalf("failure prob %v", got)
	}
}

func TestPublicAPIPhiAffectsMeshingBudget(t *testing.T) {
	var p2, p4 uint64
	for seed := uint64(0); seed < 6; seed++ {
		net2, _ := BuildScenario(seed, itSrc, itDst, SymmetricDiamond)
		pr2 := NewSimProber(net2, itSrc, itDst)
		p2 += Trace(pr2, Options{Seed: seed, Phi: 2}).Probes()
		net4, _ := BuildScenario(seed, itSrc, itDst, SymmetricDiamond)
		pr4 := NewSimProber(net4, itSrc, itDst)
		p4 += Trace(pr4, Options{Seed: seed, Phi: 4}).Probes()
	}
	if p4 <= p2 {
		t.Fatalf("phi=4 (%d) not costlier than phi=2 (%d)", p4, p2)
	}
}

func TestPublicAPISwitchOver(t *testing.T) {
	net, _ := BuildScenario(5, itSrc, itDst, MeshedDiamond48)
	p := NewSimProber(net, itSrc, itDst)
	res := Trace(p, Options{Seed: 5})
	if !res.IP.SwitchedToMDA {
		t.Fatal("meshed topology did not force a switch")
	}
}

// TestPublicAPITraceEachStreams: TraceEach at any worker count returns
// exactly what serial Trace calls return with the per-index seeds
// nprand.IndexedSeed(Seed, i), in prober order.
func TestPublicAPITraceEachStreams(t *testing.T) {
	const runs, seed = 8, 7
	build := func() []Prober {
		ps := make([]Prober, runs)
		for i := range ps {
			net, _ := BuildScenario(uint64(100+i), itSrc, itDst, Fig1UnmeshedDiamond)
			ps[i] = NewSimProber(net, itSrc, itDst)
		}
		return ps
	}
	var want []*Result
	for i, p := range build() {
		want = append(want, Trace(p, Options{Seed: nprand.IndexedSeed(seed, i)}))
	}
	for _, workers := range []int{1, 4} {
		got := TraceEach(build(), Options{Seed: seed, Workers: workers})
		if len(got) != runs {
			t.Fatalf("workers=%d: %d results for %d probers", workers, len(got), runs)
		}
		for i := range got {
			if !got[i].IP.ReachedDst || got[i].Probes() != want[i].Probes() ||
				!topo.Equal(got[i].IP.Graph, want[i].IP.Graph) {
				t.Fatalf("workers=%d: trace %d sent %d probes (reached %v), serial Trace sent %d",
					workers, i, got[i].Probes(), got[i].IP.ReachedDst, want[i].Probes())
			}
		}
	}
}
