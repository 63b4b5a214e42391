package mda

import (
	"math"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// TestGlobalStoppingPoints: a global failure bound alpha spread over a
// budget of branch branching vertices is the per-vertex bound
// eps = 1 - (1-alpha)^(1/branch) (Veitch et al.); the tables must follow.
func TestGlobalStoppingPoints(t *testing.T) {
	perVertex := func(alpha float64, branch int) float64 {
		return 1 - math.Pow(1-alpha, 1/float64(branch))
	}
	// With a branch budget of 1 the global bound equals the per-vertex
	// bound.
	if got, want := StoppingPoints(perVertex(0.05, 1), 4), Default95(4); got[1] != want[1] {
		t.Fatalf("branch=1: %v vs %v", got, want)
	}
	// A bigger branch budget means a tighter per-vertex bound and larger
	// stopping points.
	loose := Default95(4)
	tight := StoppingPoints(perVertex(0.05, 30), 4)
	for k := 1; k <= 4; k++ {
		if tight[k] <= loose[k] {
			t.Fatalf("n_%d: global-30 table %d not above per-vertex %d", k, tight[k], loose[k])
		}
	}
}

func TestStoppingPointsStrictlyIncreasing(t *testing.T) {
	for _, eps := range []float64{0.2, 0.05, 0.01, 1.0 / 256} {
		nk := StoppingPoints(eps, 40)
		for k := 1; k < len(nk); k++ {
			if nk[k] <= nk[k-1] {
				t.Fatalf("eps=%v: n_%d=%d not above n_%d=%d", eps, k, nk[k], k-1, nk[k-1])
			}
		}
	}
}

func TestStoppingPointsPanics(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v: no panic", eps)
				}
			}()
			StoppingPoints(eps, 4)
		}()
	}
}

func TestEnsureFlows(t *testing.T) {
	net, _ := fakeroute.BuildScenario(51, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	s := NewSession(p, Config{Seed: 51})
	s.DiscoverSuccessors(Source, 0)
	s.DiscoverSuccessors(s.G.Hop(0)[0], 1)
	if s.G.Width(1) != 4 {
		t.Fatalf("hop 1 width %d", s.G.Width(1))
	}
	v := s.G.Hop(1)[0]
	if !s.EnsureFlows(v, 9) {
		t.Fatal("EnsureFlows failed")
	}
	if len(s.FlowsOf(v)) < 9 {
		t.Fatalf("flows %d, want >= 9", len(s.FlowsOf(v)))
	}
	// All minted flows must actually map to v at hop 1.
	for _, f := range s.FlowsOf(v) {
		if w, ok := s.VertexAt(1, f); !ok || w != v {
			t.Fatalf("flow %d maps to %v, want %v", f, w, v)
		}
	}
}

func TestTraceMaxTTLTermination(t *testing.T) {
	// A path that never reaches the destination (dead end) must stop at
	// MaxTTL rather than loop.
	net := fakeroute.NewNetwork(53)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	// The path's final hop is the destination per AddPath's contract, but
	// with LossProb=1 beyond nothing ever answers.
	g := fakeroute.NewPathBuilder(alloc).Converge(1).Converge(1).End(testDst)
	net.EnsureIfaces(g, testDst)
	net.AddPath(testSrc, testDst, g)
	net.LossProb = 1
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := Trace(p, Config{Seed: 53, MaxTTL: 8})
	if res.ReachedDst {
		t.Fatal("reached under total loss")
	}
	if res.Graph.NumHops() > 9 {
		t.Fatalf("trace ran past MaxTTL: %d hops", res.Graph.NumHops())
	}
}

func TestTraceThroughStarHop(t *testing.T) {
	net := fakeroute.NewNetwork(54)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Converge(1).Star().Converge(1).End(testDst)
	net.EnsureIfaces(g, testDst)
	net.AddPath(testSrc, testDst, g)
	p := probe.NewSimProber(net, testSrc, testDst)
	p.Retries = 0
	res := Trace(p, Config{Seed: 54})
	if !res.ReachedDst {
		t.Fatalf("did not reach destination through star:\n%s", res.Graph)
	}
	foundStar := false
	for i := range res.Graph.Vertices {
		if res.Graph.Vertices[i].Addr == topo.StarAddr {
			foundStar = true
		}
	}
	if !foundStar {
		t.Fatal("star hop not recorded")
	}
}

func TestObservationsCollectedDuringTrace(t *testing.T) {
	net, path := fakeroute.BuildScenario(55, testSrc, testDst, fakeroute.SimplestDiamond)
	p := probe.NewSimProber(net, testSrc, testDst)
	o := obs.New()
	Trace(p, Config{Seed: 55, Obs: o})
	// Every responsive hop address must have observations with flows.
	for i := range path.Graph.Vertices {
		a := path.Graph.Vertices[i].Addr
		if a == testDst || a == topo.StarAddr {
			continue
		}
		ao := o.Get(a)
		if ao == nil {
			t.Fatalf("no observations for %s", a)
		}
		if len(ao.Samples) == 0 || len(ao.Flows) == 0 {
			t.Fatalf("empty observations for %s", a)
		}
		for _, s := range ao.Samples {
			if !s.Indirect {
				t.Fatal("trace produced a direct sample")
			}
		}
	}
}

// TestMDADiscoveredIsSubgraphOfTruth: the tracer must never invent
// vertices or edges (property over seeds).
func TestMDADiscoveredIsSubgraphOfTruth(t *testing.T) {
	builds := []func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph{
		fakeroute.Fig1UnmeshedDiamond, fakeroute.Fig1MeshedDiamond,
		fakeroute.SymmetricDiamond, fakeroute.AsymmetricDiamond,
	}
	for seed := uint64(0); seed < 8; seed++ {
		for bi, build := range builds {
			net, path := fakeroute.BuildScenario(seed, testSrc, testDst, build)
			p := probe.NewSimProber(net, testSrc, testDst)
			res := Trace(p, Config{Seed: seed})
			// Reverse coverage: every discovered vertex/edge exists in
			// the ground truth.
			v, e := topo.SubgraphCoverage(path.Graph, res.Graph)
			if v != 1 || e != 1 {
				t.Fatalf("seed %d build %d: tracer invented topology (truth covers v=%.2f e=%.2f of it)\ntruth:\n%s\ngot:\n%s",
					seed, bi, v, e, path.Graph, res.Graph)
			}
		}
	}
}

func TestRunMDASurvivesRouteChange(t *testing.T) {
	net := fakeroute.NewNetwork(56)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	before := fakeroute.Fig1UnmeshedDiamond(alloc, testDst)
	after := fakeroute.SimplestDiamond(alloc, testDst)
	net.EnsureIfaces(before, testDst)
	net.EnsureIfaces(after, testDst)
	path := net.AddPath(testSrc, testDst, before)
	path.Alt = after
	path.AltAt = 30
	p := probe.NewSimProber(net, testSrc, testDst)
	res := Trace(p, Config{Seed: 56})
	if !res.ReachedDst {
		t.Fatalf("route change broke the trace:\n%s", res.Graph)
	}
}

// TestFreshFlowMintsWholeSpace: FreshFlow must hand out every one of the
// packet.MaxFlowID+1 identifiers exactly once, then report exhaustion —
// and terminate doing so. A flow the session merely knows about (a prior
// hint it probed) is not thereby minted.
func TestFreshFlowMintsWholeSpace(t *testing.T) {
	s := NewSession(&scriptProber{dst: addrD, at: map[probe.Spec]packet.Addr{{FlowID: 5, TTL: 1}: addrA}}, Config{Seed: 9})
	s.ProbeHop(0, 5) // interned, not minted
	seen := make([]bool, packet.MaxFlowID+1)
	for i := 0; i <= packet.MaxFlowID; i++ {
		f, ok := s.FreshFlow()
		if !ok {
			t.Fatalf("exhausted after %d of %d identifiers", i, packet.MaxFlowID+1)
		}
		if int(f) > packet.MaxFlowID || seen[f] {
			t.Fatalf("mint %d: flow %d out of range or repeated", i, f)
		}
		seen[f] = true
	}
	if f, ok := s.FreshFlow(); ok {
		t.Fatalf("minted flow %d from an exhausted space", f)
	}
	if v, ok := s.VertexAt(0, 5); !ok || v != s.G.Lookup(addrA) {
		t.Fatalf("flow 5 lost its landing while the space filled up: (%v, %t)", v, ok)
	}
}

// TestSessionUsableAfterFinish: Finish hands the session's flow index back
// for other sessions to scribble on; a session read (prior capture) or
// driven further afterwards must rebuild its own and see the same tables.
func TestSessionUsableAfterFinish(t *testing.T) {
	net, _ := fakeroute.BuildScenario(57, testSrc, testDst, fakeroute.Fig1UnmeshedDiamond)
	s := NewSession(probe.NewSimProber(net, testSrc, testDst), Config{Seed: 57})
	s.RunMDA(0)
	type landing struct {
		v topo.VertexID
		f uint16
	}
	var before []landing
	for v := range s.G.Vertices {
		for _, f := range s.FlowsOf(topo.VertexID(v)) {
			before = append(before, landing{topo.VertexID(v), f})
		}
	}
	s.Finish(false)

	// Another trace takes the pooled index and fills it with its own flows.
	net2, _ := fakeroute.BuildScenario(58, testSrc, testDst, fakeroute.SymmetricDiamond)
	other := NewSession(probe.NewSimProber(net2, testSrc, testDst), Config{Seed: 58})
	other.RunMDA(0)

	for _, l := range before {
		if w, ok := s.VertexAt(s.G.V(l.v).Hop, l.f); !ok || w != l.v {
			t.Fatalf("after Finish, flow %d of vertex %v resolves to (%v, %t)", l.f, l.v, w, ok)
		}
	}
	v := s.G.Hop(2)[0]
	if !s.EnsureFlows(v, len(s.FlowsOf(v))+3) {
		t.Fatal("node control failed on a finished session")
	}
	for _, f := range s.FlowsOf(v) {
		if w, ok := s.VertexAt(2, f); !ok || w != v {
			t.Fatalf("flow %d maps to (%v, %t), want %v", f, w, ok, v)
		}
	}
	other.Finish(false)
}
