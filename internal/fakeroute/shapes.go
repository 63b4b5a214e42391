package fakeroute

import (
	"fmt"
	"sort"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// Topology builders for the canonical shapes used throughout the paper's
// evaluation (Sec 2.4.1) and by the test suite. All builders produce
// hop-aligned ground-truth graphs ready for Network.AddPath.

// AddrAllocator hands out sequential IPv4 addresses from a base.
type AddrAllocator struct {
	next uint32
}

// NewAddrAllocator starts allocation at base.
func NewAddrAllocator(base packet.Addr) *AddrAllocator {
	return &AddrAllocator{next: uint32(base)}
}

// Next returns a fresh address.
func (a *AddrAllocator) Next() packet.Addr {
	addr := packet.Addr(a.next)
	a.next++
	if a.next == 0 {
		panic("fakeroute: address space exhausted")
	}
	return addr
}

// PathBuilder assembles a hop-aligned path graph.
type PathBuilder struct {
	g     *topo.Graph
	alloc *AddrAllocator
	cur   []topo.VertexID // vertices at the last built hop
	hop   int
}

// NewPathBuilder starts a path whose hop 0 is a single fresh vertex.
func NewPathBuilder(alloc *AddrAllocator) *PathBuilder {
	b := &PathBuilder{g: topo.New(), alloc: alloc}
	v := b.g.AddVertex(0, alloc.Next())
	b.cur = []topo.VertexID{v}
	return b
}

// Graph returns the graph built so far.
func (b *PathBuilder) Graph() *topo.Graph { return b.g }

// Current returns the vertex IDs at the newest hop.
func (b *PathBuilder) Current() []topo.VertexID { return b.cur }

// Spread appends a hop where every current vertex gets k fresh successors
// (widening by a factor k, unmeshed, uniform).
func (b *PathBuilder) Spread(k int) *PathBuilder {
	b.hop++
	next := make([]topo.VertexID, 0, len(b.cur)*k)
	for _, u := range b.cur {
		for i := 0; i < k; i++ {
			w := b.g.AddVertex(b.hop, b.alloc.Next())
			b.g.AddEdge(u, w)
			next = append(next, w)
		}
	}
	b.cur = next
	return b
}

// Converge appends a hop with m fresh vertices; current vertices are
// assigned to them contiguously and evenly (out-degree 1 everywhere:
// unmeshed). If len(cur) is not a multiple of m the split is as even as
// possible, which introduces width asymmetry — callers wanting uniformity
// must keep the division exact.
func (b *PathBuilder) Converge(m int) *PathBuilder {
	if m <= 0 || m > len(b.cur) {
		panic("fakeroute: bad convergence width")
	}
	b.hop++
	next := make([]topo.VertexID, m)
	for i := range next {
		next[i] = b.g.AddVertex(b.hop, b.alloc.Next())
	}
	for i, u := range b.cur {
		w := next[i*m/len(b.cur)]
		b.g.AddEdge(u, w)
	}
	b.cur = next
	return b
}

// Full appends a hop with w fresh vertices fully connected to every
// current vertex (maximal meshing).
func (b *PathBuilder) Full(w int) *PathBuilder {
	b.hop++
	next := make([]topo.VertexID, w)
	for i := range next {
		next[i] = b.g.AddVertex(b.hop, b.alloc.Next())
	}
	for _, u := range b.cur {
		for _, v := range next {
			b.g.AddEdge(u, v)
		}
	}
	b.cur = next
	return b
}

// CrossLink appends a hop of the same width connected one-to-one, then
// adds k extra "cross" edges (vertex i also feeds successor i+1): sparse
// meshing where only k vertices have out-degree 2, giving the MDA-Lite's
// meshing test an Eq. (1) miss probability of 2^-k at phi=2 — the
// hard-to-detect population visible in the paper's Fig 2.
func (b *PathBuilder) CrossLink(k int) *PathBuilder {
	prev := append([]topo.VertexID(nil), b.cur...)
	b.Converge(len(prev))
	if k > len(prev) {
		k = len(prev)
	}
	for i := 0; i < k; i++ {
		b.g.AddEdge(prev[i], b.cur[(i+1)%len(b.cur)])
	}
	return b
}

// SpreadUneven appends a hop where current vertex i gets counts[i] fresh
// successors: the direct way to build width-asymmetric (non-uniform)
// hops.
func (b *PathBuilder) SpreadUneven(counts []int) *PathBuilder {
	if len(counts) != len(b.cur) {
		panic("fakeroute: counts must match current width")
	}
	b.hop++
	var next []topo.VertexID
	for i, u := range b.cur {
		for j := 0; j < counts[i]; j++ {
			w := b.g.AddVertex(b.hop, b.alloc.Next())
			b.g.AddEdge(u, w)
			next = append(next, w)
		}
	}
	b.cur = next
	return b
}

// Star appends a single non-responsive hop.
func (b *PathBuilder) Star() *PathBuilder {
	b.hop++
	w := b.g.AddVertex(b.hop, topo.StarAddr)
	for _, u := range b.cur {
		b.g.AddEdge(u, w)
	}
	b.cur = []topo.VertexID{w}
	return b
}

// End appends the destination vertex with the given address, converging
// all current vertices into it, and returns the finished graph.
func (b *PathBuilder) End(dst packet.Addr) *topo.Graph {
	b.hop++
	w := b.g.AddVertex(b.hop, dst)
	for _, u := range b.cur {
		b.g.AddEdge(u, w)
	}
	b.cur = []topo.VertexID{w}
	return b.g
}

// The four Sec 2.4.1 evaluation topologies, plus the Fig 1 diamonds and
// the Sec 3 simplest diamond. Each returns a ground-truth graph ending at
// dst.

// SimplestDiamond is a divergence point, two vertices, and a convergence
// point: the Sec 3 validation topology with exact MDA failure probability
// (1/2)^(n1-1).
func SimplestDiamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	return NewPathBuilder(alloc).Spread(2).Converge(1).End(dst)
}

// Fig1UnmeshedDiamond is the left topology of Fig 1: hop 1 divergence,
// four vertices at hop 2, two at hop 3 (each fed by two hop-2 vertices,
// out-degree 1: unmeshed), convergence at hop 4.
func Fig1UnmeshedDiamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	return NewPathBuilder(alloc).Spread(4).Converge(2).Converge(1).End(dst)
}

// Fig1MeshedDiamond is the right topology of Fig 1: as the unmeshed one,
// but every hop-2 vertex links to both hop-3 vertices.
func Fig1MeshedDiamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	return NewPathBuilder(alloc).Spread(4).Full(2).Converge(1).End(dst)
}

// MaxLength2Diamond is the first Sec 2.4.1 topology: a single 28-vertex
// hop between divergence and convergence (trace pl2.prakinf.tu-ilmenau.de
// → 83.167.65.184).
func MaxLength2Diamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	return NewPathBuilder(alloc).Spread(28).Converge(1).End(dst)
}

// SymmetricDiamond is the second Sec 2.4.1 topology: three multi-vertex
// hops with a maximum width of 10, uniform and unmeshed (trace
// ple1.cesnet.cz → 203.195.189.3).
func SymmetricDiamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	return NewPathBuilder(alloc).Spread(2).Spread(5).Converge(2).Converge(1).End(dst)
}

// AsymmetricDiamond is the third Sec 2.4.1 topology: nine multi-vertex
// hops, a maximum width of 19, a maximum width asymmetry of 17, unmeshed
// (trace kulcha.mimuw.edu.pl → 61.6.250.1). One hop-2 vertex has 18
// successors while its sibling has 1, making discovery probabilities at
// the wide hop range from 1/36 to 1/2.
func AsymmetricDiamond(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	b := NewPathBuilder(alloc).
		Spread(2).                  // hop 1: width 2
		SpreadUneven([]int{18, 1}). // hop 2: width 19, asymmetry 17
		Converge(10).               // hop 3
		Converge(5).                // hop 4
		Converge(4).                // hop 5
		Converge(4).                // hop 6 (one-to-one)
		Converge(2).                // hop 7
		Converge(2).                // hop 8 (one-to-one)
		Converge(2)                 // hop 9 (one-to-one): 9 multi-vertex hops
	return b.Converge(1).End(dst)
}

// MeshedDiamond48 is the fourth Sec 2.4.1 topology: five multi-vertex
// hops with a maximum width of 48 and meshing (trace ple2.planetlab.eu →
// 125.155.82.17).
func MeshedDiamond48(alloc *AddrAllocator, dst packet.Addr) *topo.Graph {
	b := NewPathBuilder(alloc).
		Spread(4).    // hop 1: width 4
		Full(8).      // hop 2: width 8, meshed with hop 1
		Spread(6).    // hop 3: width 48
		Converge(12). // hop 4: width 12
		Full(4)       // hop 5: width 4, meshed with hop 4
	return b.Converge(1).End(dst)
}

// Shapes names the canonical topologies above: the values the
// command-line tools accept for -shape.
var Shapes = map[string]func(*AddrAllocator, packet.Addr) *topo.Graph{
	"simplest":   SimplestDiamond,
	"fig1":       Fig1UnmeshedDiamond,
	"fig1meshed": Fig1MeshedDiamond,
	"maxlen2":    MaxLength2Diamond,
	"symmetric":  SymmetricDiamond,
	"asymmetric": AsymmetricDiamond,
	"meshed48":   MeshedDiamond48,
}

// ShapeNames returns the keys of Shapes in sorted order.
func ShapeNames() []string {
	names := make([]string, 0, len(Shapes))
	for n := range Shapes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TopologyShape turns a topology read from a file (the -topology flag)
// into a builder. The file fixes every address, so the allocator is
// unused; unless g's last hop is dst alone, dst is appended as a final
// hop behind every last-hop vertex.
func TopologyShape(g *topo.Graph) func(*AddrAllocator, packet.Addr) *topo.Graph {
	return func(_ *AddrAllocator, dst packet.Addr) *topo.Graph {
		last := g.Hop(g.NumHops() - 1)
		if len(last) == 1 && g.V(last[0]).Addr == dst {
			return g
		}
		end := g.AddVertex(g.NumHops(), dst)
		for _, u := range g.Hop(g.NumHops() - 2) {
			g.AddEdge(u, end)
		}
		return g
	}
}

// BuildScenario registers a ground-truth graph as the path for
// (src, dst) on a fresh network with one router per interface, returning
// the network and the path. Convenience for tests and examples.
func BuildScenario(seed uint64, src, dst packet.Addr, build func(*AddrAllocator, packet.Addr) *topo.Graph) (*Network, *Path) {
	n := NewNetwork(seed)
	alloc := NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := build(alloc, dst)
	n.EnsureIfaces(g, dst)
	return n, n.AddPath(src, dst, g)
}

// DescribeGraph summarizes a graph's hop widths, for logs and tests.
func DescribeGraph(g *topo.Graph) string {
	s := ""
	for h := 0; h < g.NumHops(); h++ {
		if h > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", g.Width(h))
	}
	return s
}
