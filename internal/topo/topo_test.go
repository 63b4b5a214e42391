package topo

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"

	"mmlpt/internal/packet"
)

// a returns a test address.
func a(n int) packet.Addr { return packet.Addr(0x0a000000 + uint32(n)) }

// buildFig6Left builds the left-hand diamond of Fig 6: max length 4, max
// width 5, max width asymmetry 1.
//
//	hop0: d
//	hop1: 5 vertices (one with 2 successors at hop2, others 1 -> asym 1)
//	hop2: depends; we mirror the figure's spirit: 1-5-5-2-1 hops.
func buildFig6Left() *Graph {
	g := New()
	d := g.AddVertex(0, a(1))
	var h1 []VertexID
	for i := 0; i < 5; i++ {
		v := g.AddVertex(1, a(10+i))
		g.AddEdge(d, v)
		h1 = append(h1, v)
	}
	// hop2: 5 vertices; vertex h1[0] gets 2 successors, others 1 each and
	// one hop2 vertex shared... to keep widths 5-5 and asymmetry 1 we give
	// h1[0] two successors and h1[4] zero-successor sibling merge.
	var h2 []VertexID
	for i := 0; i < 5; i++ {
		h2 = append(h2, g.AddVertex(2, a(20+i)))
	}
	g.AddEdge(h1[0], h2[0])
	g.AddEdge(h1[0], h2[1])
	g.AddEdge(h1[1], h2[2])
	g.AddEdge(h1[2], h2[3])
	g.AddEdge(h1[3], h2[4])
	g.AddEdge(h1[4], h2[4])
	// hop3: 2 vertices.
	x := g.AddVertex(3, a(30))
	y := g.AddVertex(3, a(31))
	g.AddEdge(h2[0], x)
	g.AddEdge(h2[1], x)
	g.AddEdge(h2[2], x)
	g.AddEdge(h2[3], y)
	g.AddEdge(h2[4], y)
	// hop4: convergence.
	c := g.AddVertex(4, a(40))
	g.AddEdge(x, c)
	g.AddEdge(y, c)
	return g
}

func TestDiamondExtractionAndMetrics(t *testing.T) {
	g := buildFig6Left()
	ds := g.Diamonds()
	if len(ds) != 1 {
		t.Fatalf("diamonds = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.DivHop != 0 || d.ConvHop != 4 {
		t.Fatalf("span %d..%d", d.DivHop, d.ConvHop)
	}
	m := d.ComputeMetrics()
	if m.MaxLength != 4 {
		t.Errorf("max length %d, want 4", m.MaxLength)
	}
	if m.MaxWidth != 5 {
		t.Errorf("max width %d, want 5", m.MaxWidth)
	}
	if m.MaxWidthAsymmetry != 1 {
		t.Errorf("max width asymmetry %d, want 1", m.MaxWidthAsymmetry)
	}
	if m.Uniform {
		t.Error("diamond with asymmetry 1 reported uniform")
	}
}

// buildMeshedRatio04 builds a diamond with 5 hop pairs of which 2 are
// meshed (the right-hand Fig 6 diamond's ratio of 0.4).
func buildMeshedRatio04() *Graph {
	g := New()
	d := g.AddVertex(0, a(1))
	// hop1: 2 vertices.
	u1, u2 := g.AddVertex(1, a(11)), g.AddVertex(1, a(12))
	g.AddEdge(d, u1)
	g.AddEdge(d, u2)
	// hop2: 2 vertices, fully meshed with hop1 (pair 1-2 meshed).
	v1, v2 := g.AddVertex(2, a(21)), g.AddVertex(2, a(22))
	g.AddEdge(u1, v1)
	g.AddEdge(u1, v2)
	g.AddEdge(u2, v1)
	g.AddEdge(u2, v2)
	// hop3: 2 vertices, one-to-one (unmeshed).
	w1, w2 := g.AddVertex(3, a(31)), g.AddVertex(3, a(32))
	g.AddEdge(v1, w1)
	g.AddEdge(v2, w2)
	// hop4: 2 vertices, fully meshed with hop3 (pair 4-5 meshed).
	x1, x2 := g.AddVertex(4, a(41)), g.AddVertex(4, a(42))
	g.AddEdge(w1, x1)
	g.AddEdge(w1, x2)
	g.AddEdge(w2, x1)
	g.AddEdge(w2, x2)
	// hop5: convergence.
	c := g.AddVertex(5, a(51))
	g.AddEdge(x1, c)
	g.AddEdge(x2, c)
	return g
}

func TestRatioMeshedHops(t *testing.T) {
	g := buildMeshedRatio04()
	ds := g.Diamonds()
	if len(ds) != 1 {
		t.Fatalf("diamonds = %d", len(ds))
	}
	d := ds[0]
	if !d.Meshed() {
		t.Fatal("diamond not meshed")
	}
	if got := d.RatioMeshedHops(); got != 0.4 {
		t.Fatalf("ratio of meshed hops = %.2f, want 0.4 (meshed pairs %v of %d)",
			got, d.MeshedHopPairs(), d.HopPairs())
	}
}

func TestMeshingThreeCases(t *testing.T) {
	// Case 1: equal widths, out-degree 2 somewhere -> meshed.
	g1 := New()
	d := g1.AddVertex(0, a(1))
	u1, u2 := g1.AddVertex(1, a(2)), g1.AddVertex(1, a(3))
	g1.AddEdge(d, u1)
	g1.AddEdge(d, u2)
	v1, v2 := g1.AddVertex(2, a(4)), g1.AddVertex(2, a(5))
	g1.AddEdge(u1, v1)
	g1.AddEdge(u1, v2)
	g1.AddEdge(u2, v1)
	if !g1.PairMeshed(1) {
		t.Error("case 1 (equal widths, out-degree 2) not meshed")
	}
	// Case 2: widening with an in-degree 2 -> meshed.
	g2 := New()
	d2 := g2.AddVertex(0, a(1))
	w1 := g2.AddVertex(1, a(2))
	g2.AddEdge(d2, w1)
	x1, x2 := g2.AddVertex(2, a(3)), g2.AddVertex(2, a(4))
	g2.AddEdge(w1, x1)
	g2.AddEdge(w1, x2)
	// widen 2 -> 3 with one shared target
	y1, y2, y3 := g2.AddVertex(3, a(5)), g2.AddVertex(3, a(6)), g2.AddVertex(3, a(7))
	g2.AddEdge(x1, y1)
	g2.AddEdge(x1, y2)
	g2.AddEdge(x2, y2)
	g2.AddEdge(x2, y3)
	if !g2.PairMeshed(2) {
		t.Error("case 2 (widening, in-degree 2) not meshed")
	}
	// Case 3: narrowing with out-degree 1 everywhere -> NOT meshed.
	g3 := New()
	d3 := g3.AddVertex(0, a(1))
	p1, p2, p3, p4 := g3.AddVertex(1, a(2)), g3.AddVertex(1, a(3)), g3.AddVertex(1, a(4)), g3.AddVertex(1, a(5))
	for _, p := range []VertexID{p1, p2, p3, p4} {
		g3.AddEdge(d3, p)
	}
	q1, q2 := g3.AddVertex(2, a(6)), g3.AddVertex(2, a(7))
	g3.AddEdge(p1, q1)
	g3.AddEdge(p2, q1)
	g3.AddEdge(p3, q2)
	g3.AddEdge(p4, q2)
	if g3.PairMeshed(1) {
		t.Error("case 3 (pure narrowing) wrongly meshed")
	}
	// Case 3b: narrowing with one out-degree 2 -> meshed.
	g3.AddEdge(p1, q2)
	if !g3.PairMeshed(1) {
		t.Error("case 3b (narrowing with out-degree 2) not meshed")
	}
}

func TestReachProbabilitiesUniformDiamond(t *testing.T) {
	g := New()
	d := g.AddVertex(0, a(1))
	var mid []VertexID
	for i := 0; i < 4; i++ {
		v := g.AddVertex(1, a(10+i))
		g.AddEdge(d, v)
		mid = append(mid, v)
	}
	c := g.AddVertex(2, a(20))
	for _, v := range mid {
		g.AddEdge(v, c)
	}
	dm := g.Diamonds()[0]
	probs := dm.ReachProbabilities()
	for _, v := range mid {
		if p := probs[v]; p < 0.2499 || p > 0.2501 {
			t.Fatalf("mid vertex prob %.4f, want 0.25", p)
		}
	}
	if p := probs[c]; p < 0.9999 || p > 1.0001 {
		t.Fatalf("convergence prob %.4f, want 1", p)
	}
	if dm.MaxProbabilityDifference() != 0 {
		t.Fatal("uniform diamond has nonzero probability difference")
	}
}

func TestReachProbabilitiesAsymmetric(t *testing.T) {
	g := New()
	d := g.AddVertex(0, a(1))
	u1, u2 := g.AddVertex(1, a(2)), g.AddVertex(1, a(3))
	g.AddEdge(d, u1)
	g.AddEdge(d, u2)
	// u1 fans to 3, u2 to 1: hop2 probabilities 1/6,1/6,1/6,1/2.
	var h2 []VertexID
	for i := 0; i < 3; i++ {
		v := g.AddVertex(2, a(10+i))
		g.AddEdge(u1, v)
		h2 = append(h2, v)
	}
	w := g.AddVertex(2, a(13))
	g.AddEdge(u2, w)
	c := g.AddVertex(3, a(20))
	for _, v := range append(h2, w) {
		g.AddEdge(v, c)
	}
	dm := g.Diamonds()[0]
	diff := dm.MaxProbabilityDifference()
	want := 0.5 - 1.0/6
	if diff < want-1e-9 || diff > want+1e-9 {
		t.Fatalf("max probability difference %.4f, want %.4f", diff, want)
	}
	if dm.MaxWidthAsymmetry() != 2 {
		t.Fatalf("asymmetry %d, want 2", dm.MaxWidthAsymmetry())
	}
}

// TestReachProbabilitySumInvariant: for any spread/converge layer
// construction, each hop's probabilities sum to 1 (probability mass is
// conserved through load balancing).
func TestReachProbabilitySumInvariant(t *testing.T) {
	f := func(widths []uint8) bool {
		g := New()
		prev := []VertexID{g.AddVertex(0, a(1))}
		next := 100
		for h, wRaw := range widths {
			w := int(wRaw)%5 + 1
			var layer []VertexID
			for i := 0; i < w; i++ {
				layer = append(layer, g.AddVertex(h+1, a(next)))
				next++
			}
			// Connect: each prev vertex to a contiguous block (always at
			// least one edge each; every layer vertex gets a predecessor).
			for i, u := range prev {
				g.AddEdge(u, layer[i*w/len(prev)])
			}
			for j, v := range layer {
				g.AddEdge(prev[j*len(prev)/w], v)
			}
			prev = layer
		}
		c := g.AddVertex(len(widths)+1, a(99))
		for _, u := range prev {
			g.AddEdge(u, c)
		}
		if len(widths) == 0 {
			return true
		}
		ds := g.Diamonds()
		if len(ds) == 0 {
			return true
		}
		probs := ds[0].ReachProbabilities()
		for h := ds[0].DivHop; h <= ds[0].ConvHop; h++ {
			var sum float64
			for _, v := range g.Hop(h) {
				sum += probs[v]
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualAndCoverage(t *testing.T) {
	g1 := buildFig6Left()
	g2 := buildFig6Left()
	if !Equal(g1, g2) {
		t.Fatal("identical constructions not Equal")
	}
	v, e := SubgraphCoverage(g1, g2)
	if v != 1 || e != 1 {
		t.Fatalf("self coverage %v %v", v, e)
	}
	// Remove knowledge: a graph missing a vertex covers less.
	g3 := New()
	g3.AddVertex(0, a(1))
	v, e = SubgraphCoverage(g3, g1)
	if v >= 1 || e >= 1 {
		t.Fatalf("partial coverage %v %v", v, e)
	}
	if Equal(g3, g1) {
		t.Fatal("different graphs Equal")
	}
}

func TestStarsAreDistinctVertices(t *testing.T) {
	g := New()
	s1 := g.AddVertex(0, StarAddr)
	s2 := g.AddVertex(0, StarAddr)
	if s1 == s2 {
		t.Fatal("stars merged")
	}
	if g.Lookup(StarAddr) != None {
		t.Fatal("stars must not be indexed by address")
	}
}

func TestAddVertexDedupsPerHop(t *testing.T) {
	g := New()
	v1 := g.AddVertex(2, a(5))
	v2 := g.AddVertex(2, a(5))
	if v1 != v2 {
		t.Fatal("same addr same hop not deduplicated")
	}
	v3 := g.AddVertex(3, a(5))
	if v3 == v1 {
		t.Fatal("same addr different hop wrongly merged")
	}
}

// TestDAGCore pins the Graph's adjacency core: edges are directional and
// deduplicated, successor lists keep insertion order, and degrees follow
// the distinct edges.
func TestDAGCore(t *testing.T) {
	t.Parallel()
	g := New()
	u := g.AddVertex(0, a(100))
	w1 := g.AddVertex(1, a(101))
	w2 := g.AddVertex(1, a(102))
	x := g.AddVertex(2, a(103))
	g.AddEdge(u, w2)
	g.AddEdge(u, w1)
	g.AddEdge(w1, x)
	g.AddEdge(w2, x)
	g.AddEdge(u, w2) // duplicate, ignored
	g.AddEdge(u, None)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("NumVertices = %d, NumEdges = %d, want 4 and 4", g.NumVertices(), g.NumEdges())
	}
	if got := g.Succ(u); len(got) != 2 || got[0] != w2 || got[1] != w1 {
		t.Fatalf("Succ(u) = %v, want [w2 w1] in insertion order", got)
	}
	if len(g.Succ(x)) != 0 {
		t.Fatalf("Succ(x) = %v, want none: edges are directional", g.Succ(x))
	}
	if g.OutDegree(u) != 2 || g.InDegree(u) != 0 || g.InDegree(w2) != 1 || g.InDegree(x) != 2 {
		t.Fatalf("degrees: out(u)=%d in(u)=%d in(w2)=%d in(x)=%d",
			g.OutDegree(u), g.InDegree(u), g.InDegree(w2), g.InDegree(x))
	}
}

// TestGraphDelegatesToDAG pins that the adjacency tables grow in step
// with the vertex table: every vertex, whatever hop it is added at, has a
// successor list and an in-degree, and a duplicate edge changes neither.
func TestGraphDelegatesToDAG(t *testing.T) {
	t.Parallel()
	g := New()
	u := g.AddVertex(0, a(100))
	w1 := g.AddVertex(1, a(101))
	w2 := g.AddVertex(1, a(102))
	g.AddVertex(3, StarAddr)
	g.AddEdge(u, w1)
	g.AddEdge(u, w2)
	g.AddEdge(u, w1) // duplicate, ignored
	if g.NumEdges() != 2 || g.OutDegree(u) != 2 || g.InDegree(w1) != 1 {
		t.Fatalf("graph adjacency wrong: edges=%d out=%d in=%d",
			g.NumEdges(), g.OutDegree(u), g.InDegree(w1))
	}
	if len(g.adj) != len(g.Vertices) || g.NumVertices() != 4 {
		t.Fatalf("vertex and adjacency tables out of sync: %d vertices, %d adjacency rows",
			len(g.Vertices), len(g.adj))
	}
}

func TestDiamondKeyDistinguishesStars(t *testing.T) {
	g := buildFig6Left()
	d := g.Diamonds()[0]
	k := d.Key()
	if k.Div != a(1) || k.Conv != a(40) {
		t.Fatalf("key %+v", k)
	}
	star := DiamondKey{Div: StarAddr, Conv: a(40)}
	if k == star {
		t.Fatal("star key equals responsive key")
	}
}

func TestDiamondsMultipleInOneTrace(t *testing.T) {
	g := New()
	v := g.AddVertex(0, a(1))
	u1, u2 := g.AddVertex(1, a(2)), g.AddVertex(1, a(3))
	g.AddEdge(v, u1)
	g.AddEdge(v, u2)
	m := g.AddVertex(2, a(4))
	g.AddEdge(u1, m)
	g.AddEdge(u2, m)
	// chain hop
	c := g.AddVertex(3, a(5))
	g.AddEdge(m, c)
	// second diamond
	w1, w2, w3 := g.AddVertex(4, a(6)), g.AddVertex(4, a(7)), g.AddVertex(4, a(8))
	g.AddEdge(c, w1)
	g.AddEdge(c, w2)
	g.AddEdge(c, w3)
	end := g.AddVertex(5, a(9))
	for _, w := range []VertexID{w1, w2, w3} {
		g.AddEdge(w, end)
	}
	ds := g.Diamonds()
	if len(ds) != 2 {
		t.Fatalf("found %d diamonds, want 2:\n%s", len(ds), g)
	}
	if ds[0].MaxWidth() != 2 || ds[1].MaxWidth() != 3 {
		t.Fatalf("widths %d %d", ds[0].MaxWidth(), ds[1].MaxWidth())
	}
}

// TestLookupFirstAdded pins Lookup's rule for an address present at two
// hops: it answers the vertex added first, whatever its hop, and None
// for a star or an absent address.
func TestLookupFirstAdded(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddVertex(0, a(1))
	late := g.AddVertex(3, a(7))
	early := g.AddVertex(1, a(7))
	star := g.AddVertex(2, StarAddr)
	if late == early {
		t.Fatal("one address at two hops made one vertex")
	}
	if got := g.Lookup(a(7)); got != late {
		t.Fatalf("Lookup = %d, want %d, the first-added vertex (hop 3), not %d (hop 1)", got, late, early)
	}
	if g.AddVertex(1, a(7)) != early || g.AddVertex(3, a(7)) != late {
		t.Fatal("re-adding an (address, hop) made a new vertex")
	}
	if got := g.Lookup(StarAddr); got != None || star == None {
		t.Fatalf("Lookup(StarAddr) = %d, want None", got)
	}
	if got := g.Lookup(a(9)); got != None {
		t.Fatalf("Lookup(absent) = %d, want None", got)
	}
}

// TestVertexPacks pins Vertex at 16 bytes where int is 64 bits wide.
func TestVertexPacks(t *testing.T) {
	if size := unsafe.Sizeof(Vertex{}); strconv.IntSize == 64 && size != 16 {
		t.Fatalf("Vertex is %d bytes, want 16", size)
	}
}

// TestSuccessorSlabLists pins the successor slab's contract: every list
// keeps its edges in insertion order while lists around it grow and move,
// an append to a returned list copies instead of writing into the next
// one, and a list returned earlier still reads what it held then.
func TestSuccessorSlabLists(t *testing.T) {
	t.Parallel()
	g := New()
	const n = 5
	var us, ws []VertexID
	for i := 0; i < n; i++ {
		us = append(us, g.AddVertex(0, a(i+1)))
	}
	for j := 0; j < 2*n; j++ {
		ws = append(ws, g.AddVertex(1, a(100+j)))
	}
	// Interleave: round r gives every u its r-th successor, so each list
	// fills past its capacity while others sit behind it in the slab.
	early := g.Succ(us[0])
	for r := 0; r < 2*n; r++ {
		for i, u := range us {
			g.AddEdge(u, ws[(i+r)%(2*n)])
		}
		if r == 0 {
			early = g.Succ(us[0])
		}
	}
	for _, u := range us {
		if grown := append(g.Succ(u), None); len(grown) != 2*n+1 {
			t.Fatalf("append to Succ(%d): len %d", u, len(grown))
		}
	}
	for i, u := range us {
		got := g.Succ(u)
		if len(got) != 2*n || cap(got) != len(got) {
			t.Fatalf("Succ(u%d): len %d cap %d, want %d and %d", i, len(got), cap(got), 2*n, 2*n)
		}
		for r, w := range got {
			if w != ws[(i+r)%(2*n)] {
				t.Fatalf("Succ(u%d)[%d] = %d, want %d: a list was written through another", i, r, w, ws[(i+r)%(2*n)])
			}
		}
	}
	if len(early) != 1 || early[0] != ws[0] {
		t.Fatalf("a list returned before later edges now reads %v", early)
	}
	for _, w := range ws {
		if g.InDegree(w) != n {
			t.Fatalf("InDegree(%d) = %d, want %d", w, g.InDegree(w), n)
		}
	}
	if g.NumEdges() != 2*n*n {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), 2*n*n)
	}
}

// TestWideHopDedupe pins AddVertex's deduplication on both sides of
// wideHop: a hop scanned by its address column and a hop looked up in
// the wide index answer the same vertex for a repeated (address, hop),
// keep stars distinct, and tell one address at two hops apart.
func TestWideHopDedupe(t *testing.T) {
	t.Parallel()
	for _, width := range []int{wideHop - 1, wideHop, 3 * wideHop} {
		g := New()
		g.AddVertex(0, a(1))
		var ids []VertexID
		for i := 0; i < width; i++ {
			ids = append(ids, g.AddVertex(1, a(100+i)))
			g.AddVertex(1, StarAddr)
		}
		for i := 0; i < width; i++ {
			if again := g.AddVertex(1, a(100+i)); again != ids[i] {
				t.Fatalf("width %d: re-adding vertex %d made %d", width, ids[i], again)
			}
		}
		other := g.AddVertex(2, a(100))
		if other == ids[0] || g.AddVertex(2, a(100)) != other || g.Lookup(a(100)) != ids[0] {
			t.Fatalf("width %d: one address at two hops not kept apart", width)
		}
		if g.Width(1) != 2*width || g.NumVertices() != 2*width+2 {
			t.Fatalf("width %d: hop 1 holds %d vertices, graph %d; want %d and %d",
				width, g.Width(1), g.NumVertices(), 2*width, 2*width+2)
		}
	}
}

// buildWideHop builds one diamond: a divergence vertex, width vertices at
// hop 1 and a convergence vertex, with all 2·width edges.
func buildWideHop(width int) *Graph {
	g := New()
	div := g.AddVertex(0, a(1))
	conv := g.AddVertex(2, a(2))
	for i := 0; i < width; i++ {
		v := g.AddVertex(1, a(100+i))
		g.AddEdge(div, v)
		g.AddEdge(v, conv)
	}
	return g
}

// TestWideHopBuildAllocations pins the cost of building a graph in
// allocations: O(hops + log V), not O(V). With a successor slice per
// vertex and an address map, a 96-wide hop and its edges took 151
// allocations, 254 at width 192 and 453 at width 384; the slabs read 48,
// 54 and 60 (73 and 82 for the first two under -race).
func TestWideHopBuildAllocations(t *testing.T) {
	budget, perDoubling := 60.0, 8.0
	if raceEnabled {
		budget, perDoubling = 90, 12
	}
	var prev float64
	for _, width := range []int{96, 192, 384} {
		allocs := testing.AllocsPerRun(20, func() { buildWideHop(width) })
		t.Logf("width %d: %.0f allocs", width, allocs)
		if width == 96 && allocs > budget {
			t.Fatalf("a 96-wide hop took %.0f allocs to build, budget %.0f", allocs, budget)
		}
		if width > 96 && allocs > prev+perDoubling {
			t.Fatalf("doubling the hop to width %d took %.0f allocs, %.0f more than at half the width: the count grows with V",
				width, allocs, allocs-prev)
		}
		prev = allocs
	}
}

// BenchmarkAddVertexHit times AddVertex on an (address, hop) already
// present: the tracer's call for every reply from a known interface.
func BenchmarkAddVertexHit(b *testing.B) {
	for _, width := range []int{4, 16, 96} {
		g := buildWideHop(width)
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			x := uint32(1)
			for i := 0; i < b.N; i++ {
				x = x*1664525 + 1013904223
				g.AddVertex(1, a(100+int(x>>8)%width))
			}
		})
	}
}
