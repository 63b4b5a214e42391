package core

import (
	"reflect"
	"testing"

	"mmlpt/internal/alias"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

var (
	tSrc = packet.MustParseAddr("192.0.2.1")
	tDst = packet.MustParseAddr("198.51.100.77")
)

func a(n int) packet.Addr { return packet.Addr(0x0a000000 + uint32(n)) }

// routers returns the representative rule over the given alias sets, as
// Trace applies it.
func routers(sets ...[]packet.Addr) func(packet.Addr) packet.Addr {
	u := alias.NewUnion()
	for _, s := range sets {
		u.AddSet(s)
	}
	return u.Find
}

// buildDiamondGraph makes a 1-w-1 diamond graph (hop0 div, hop1 width w,
// hop2 conv).
func buildDiamondGraph(w int) *topo.Graph {
	g := topo.New()
	d := g.AddVertex(0, a(1))
	c := g.AddVertex(2, a(99))
	for i := 0; i < w; i++ {
		v := g.AddVertex(1, a(10+i))
		g.AddEdge(d, v)
		g.AddEdge(v, c)
	}
	return g
}

func TestCollapseRoutersMergesSameHop(t *testing.T) {
	g := buildDiamondGraph(4)
	r := CollapseRouters(g, routers([]packet.Addr{a(10), a(11)}, []packet.Addr{a(12), a(13)}))
	if r.Width(1) != 2 {
		t.Fatalf("collapsed width %d, want 2\n%s", r.Width(1), r)
	}
	if r.Width(0) != 1 || r.Width(2) != 1 {
		t.Fatal("endpoints must be unchanged")
	}
	// Edges: div→2 routers, 2 routers→conv.
	if r.NumEdges() != 4 {
		t.Fatalf("edges %d, want 4", r.NumEdges())
	}
}

func TestCollapsePreservesStars(t *testing.T) {
	g := topo.New()
	d := g.AddVertex(0, a(1))
	s := g.AddVertex(1, topo.StarAddr)
	g.AddEdge(d, s)
	r := CollapseRouters(g, routers())
	if r.Width(1) != 1 || r.V(r.Hop(1)[0]).Addr != topo.StarAddr {
		t.Fatal("star lost in collapse")
	}
}

func TestClassifyDiamondNoChange(t *testing.T) {
	g := buildDiamondGraph(4)
	d := g.Diamonds()[0]
	router := CollapseRouters(g, routers())
	if e := ClassifyDiamond(d, router); e != EffectNoChange {
		t.Fatalf("effect %v", e)
	}
}

func TestClassifyDiamondSingleSmaller(t *testing.T) {
	g := buildDiamondGraph(4)
	d := g.Diamonds()[0]
	router := CollapseRouters(g, routers([]packet.Addr{a(10), a(11)}))
	if e := ClassifyDiamond(d, router); e != EffectSingleSmaller {
		t.Fatalf("effect %v", e)
	}
}

func TestClassifyDiamondOnePath(t *testing.T) {
	g := buildDiamondGraph(3)
	d := g.Diamonds()[0]
	router := CollapseRouters(g, routers([]packet.Addr{a(10), a(11), a(12)}))
	if e := ClassifyDiamond(d, router); e != EffectOnePath {
		t.Fatalf("effect %v", e)
	}
}

func TestClassifyDiamondMultipleSmaller(t *testing.T) {
	// A length-4 diamond whose middle hop collapses to one router: the
	// region splits into two smaller diamonds.
	g := topo.New()
	d0 := g.AddVertex(0, a(1))
	u1, u2 := g.AddVertex(1, a(10)), g.AddVertex(1, a(11))
	g.AddEdge(d0, u1)
	g.AddEdge(d0, u2)
	m1, m2 := g.AddVertex(2, a(20)), g.AddVertex(2, a(21))
	g.AddEdge(u1, m1)
	g.AddEdge(u2, m2)
	w1, w2 := g.AddVertex(3, a(30)), g.AddVertex(3, a(31))
	g.AddEdge(m1, w1)
	g.AddEdge(m2, w2)
	c := g.AddVertex(4, a(40))
	g.AddEdge(w1, c)
	g.AddEdge(w2, c)

	d := g.Diamonds()[0]
	router := CollapseRouters(g, routers([]packet.Addr{a(20), a(21)}))
	if e := ClassifyDiamond(d, router); e != EffectMultipleSmaller {
		t.Fatalf("effect %v\nrouter:\n%s", e, router)
	}
}

func TestCandidateGroups(t *testing.T) {
	g := buildDiamondGraph(3)
	g.AddVertex(1, topo.StarAddr) // stars are excluded
	groups := CandidateGroups(g, a(99))
	if len(groups) != 1 {
		t.Fatalf("groups %d", len(groups))
	}
	if len(groups[0]) != 3 {
		t.Fatalf("group size %d, want 3 (star excluded)", len(groups[0]))
	}
}

// TestRouterGraphLabelsLowestAddr: a trace's router graph labels each
// router with the lowest address of its accepted sets and ignores
// singleton and unable sets.
func TestRouterGraphLabelsLowestAddr(t *testing.T) {
	g := buildDiamondGraph(5)
	r := routerGraph(g, []alias.Set{
		{Addrs: []packet.Addr{a(13), a(11), a(12)}, Outcome: alias.Accepted},
		{Addrs: []packet.Addr{a(10)}, Outcome: alias.Accepted},      // singleton: ignored
		{Addrs: []packet.Addr{a(14), a(10)}, Outcome: alias.Unable}, // unable: ignored
	})
	var got []packet.Addr
	for _, id := range r.Hop(1) {
		got = append(got, r.V(id).Addr)
	}
	if want := []packet.Addr{a(10), a(11), a(14)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("router labels at hop 1 = %v, want %v", got, want)
	}
}

// End-to-end: a multilevel trace over a diamond with two aliased routers
// collapses the router-level width.
func TestTraceMultilevelEndToEnd(t *testing.T) {
	net := fakeroute.NewNetwork(31)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Spread(4).Converge(1).End(tDst)
	hop1 := g.Hop(1)
	rA, rB := net.NewRouter(), net.NewRouter()
	for i, id := range hop1 {
		r := rA
		if i >= 2 {
			r = rB
		}
		net.AddIface(r, g.V(id).Addr)
	}
	net.EnsureIfaces(g, tDst)
	net.AddPath(tSrc, tDst, g)

	p := probe.NewSimProber(net, tSrc, tDst)
	res := Trace(p, Options{Trace: mda.Config{Seed: 31}, Rounds: 4})
	if !res.IP.ReachedDst {
		t.Fatal("not reached")
	}
	if res.IP.Graph.Width(1) != 4 {
		t.Fatalf("IP width %d", res.IP.Graph.Width(1))
	}
	if res.RouterGraph.Width(1) != 2 {
		t.Fatalf("router width %d, want 2\n%s", res.RouterGraph.Width(1), res.RouterGraph)
	}
	if res.AliasProbes == 0 {
		t.Fatal("no alias probing recorded")
	}
	if len(res.Rounds) != 5 {
		t.Fatalf("round snapshots %d, want 5", len(res.Rounds))
	}
	effects := 0
	for _, d := range res.IP.Graph.Diamonds() {
		if ClassifyDiamond(d, res.RouterGraph) == EffectSingleSmaller {
			effects++
		}
	}
	if effects != 1 {
		t.Fatalf("expected one single-smaller diamond, got %d", effects)
	}
}
