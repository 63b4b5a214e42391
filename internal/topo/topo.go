// Package topo models multipath route topologies: the directed acyclic
// graphs of IP interfaces that per-flow load balancing exposes between a
// source and a destination.
//
// One Graph type serves three roles: the ground truth held by the
// simulator, the topology a tracer discovers incrementally, and the object
// the surveys analyse. Hops are indexed by TTL distance from the source;
// hop 0 holds the single first-hop vertex (or the source itself).
//
// The package also implements the paper's analytical vocabulary
// (Sec 2.2 and Sec 5): diamonds, maximum width, maximum length, maximum
// width asymmetry, the three-case meshing predicate, the ratio of meshed
// hops, uniformity, and per-vertex reach probabilities.
package topo

import (
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/packet"
)

// VertexID indexes Graph.Vertices.
type VertexID int32

// None marks the absence of a vertex.
const None VertexID = -1

// RouterID identifies a router a vertex belongs to; NoRouter if unknown.
type RouterID int32

// NoRouter marks a vertex with no known router assignment.
const NoRouter RouterID = -1

// StarAddr is the pseudo-address used for a non-responsive ("star") vertex.
// Stars never equal a real interface address.
const StarAddr packet.Addr = 0

// Vertex is one IP interface observed (or simulated) at a hop.
type Vertex struct {
	Addr   packet.Addr
	Hop    int
	Router RouterID
}

// Graph is a multipath route topology whose vertices are keyed by
// (address, hop). Successor lists are deduplicated and keep the order
// edges were first recorded in, which keeps construction deterministic
// for a deterministic caller.
type Graph struct {
	Vertices []Vertex
	succ     [][]VertexID
	indeg    []int
	hops     [][]VertexID
	byAddr   map[packet.Addr]VertexID
}

// New returns an empty Graph.
func New() *Graph {
	return &Graph{byAddr: make(map[packet.Addr]VertexID)}
}

// NumHops returns the number of hops (TTL levels) present.
func (g *Graph) NumHops() int { return len(g.hops) }

// Hop returns the vertex IDs at hop h, or nil if h is out of range.
func (g *Graph) Hop(h int) []VertexID {
	if h < 0 || h >= len(g.hops) {
		return nil
	}
	return g.hops[h]
}

// Width returns the number of vertices at hop h.
func (g *Graph) Width(h int) int { return len(g.Hop(h)) }

// Lookup returns the vertex with the given address, or None. Stars are not
// indexed by address.
func (g *Graph) Lookup(addr packet.Addr) VertexID {
	if addr == StarAddr {
		return None
	}
	if id, ok := g.byAddr[addr]; ok {
		return id
	}
	return None
}

// V returns the vertex record for id. The pointer stays valid only until
// the next AddVertex.
func (g *Graph) V(id VertexID) *Vertex { return &g.Vertices[id] }

// AddVertex inserts a vertex with the given address at hop h, growing the
// hop list as needed. If a vertex with that address already exists at h, its
// ID is returned unchanged. The same address may legitimately appear at two
// different hops (routing loops, diamonds sharing interfaces); each
// (addr, hop) pair is a distinct vertex, and Lookup returns the first added.
// Star vertices (addr == StarAddr) are always distinct.
func (g *Graph) AddVertex(h int, addr packet.Addr) VertexID {
	if h < 0 {
		panic("topo: negative hop")
	}
	if addr != StarAddr {
		if id, ok := g.byAddr[addr]; ok && g.Vertices[id].Hop == h {
			return id
		}
		for _, id := range g.Hop(h) {
			if g.Vertices[id].Addr == addr {
				return id
			}
		}
	}
	id := VertexID(len(g.Vertices))
	g.Vertices = append(g.Vertices, Vertex{Addr: addr, Hop: h, Router: NoRouter})
	g.succ = append(g.succ, nil)
	g.indeg = append(g.indeg, 0)
	for len(g.hops) <= h {
		g.hops = append(g.hops, nil)
	}
	g.hops[h] = append(g.hops[h], id)
	if addr != StarAddr {
		if _, ok := g.byAddr[addr]; !ok {
			g.byAddr[addr] = id
		}
	}
	return id
}

// AddEdge records a link from u (at hop h) to w (at hop h+1). Duplicate
// edges are ignored.
func (g *Graph) AddEdge(u, w VertexID) {
	if u == None || w == None {
		return
	}
	for _, s := range g.succ[u] {
		if s == w {
			return
		}
	}
	g.succ[u] = append(g.succ[u], w)
	g.indeg[w]++
}

// Succ returns the successor vertex IDs of v, in the order their edges
// were first recorded. The slice is owned by the graph; callers must not
// modify it.
func (g *Graph) Succ(v VertexID) []VertexID { return g.succ[v] }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.succ[v]) }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v VertexID) int { return g.indeg[v] }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// NumVertices returns the total number of vertices.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// String renders the graph hop by hop, for debugging and CLI output.
func (g *Graph) String() string {
	var b strings.Builder
	for h := 0; h < len(g.hops); h++ {
		fmt.Fprintf(&b, "hop %2d:", h)
		for _, id := range g.hops[h] {
			v := &g.Vertices[id]
			if v.Addr == StarAddr {
				b.WriteString(" *")
			} else {
				fmt.Fprintf(&b, " %s", v.Addr)
			}
			if n := g.OutDegree(id); n > 0 {
				fmt.Fprintf(&b, "->%d", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Diamond is a subgraph delimited by a divergence point followed, two or
// more hops later, by a convergence point, with all flows passing through
// both (Augustin et al.). DivHop and ConvHop are hop indices into the
// parent graph; Div and Conv the single vertices at those hops.
type Diamond struct {
	g                 *Graph
	DivHop, ConvHop   int
	Div, Conv         VertexID
	DivAddr, ConvAddr packet.Addr
}

// Graph returns the parent graph the diamond lives in.
func (d *Diamond) Graph() *Graph { return d.g }

// Key identifies a distinct diamond: its divergence and convergence
// addresses (Sec 5: "we define a distinct diamond by its divergence point
// and its convergence point"). Star endpoints make the diamond distinct
// from any responsive-endpoint diamond.
func (d *Diamond) Key() DiamondKey {
	return DiamondKey{Div: d.DivAddr, Conv: d.ConvAddr}
}

// DiamondKey identifies a distinct diamond.
type DiamondKey struct {
	Div, Conv packet.Addr
}

// Diamonds extracts all diamonds from the graph: maximal runs of
// multi-vertex hops bracketed by single-vertex hops.
func (g *Graph) Diamonds() []*Diamond {
	var out []*Diamond
	h := 0
	for h < len(g.hops) {
		if len(g.hops[h]) != 1 {
			h++
			continue
		}
		// h is a candidate divergence point; find the next single-vertex
		// hop after at least one multi-vertex hop.
		j := h + 1
		for j < len(g.hops) && len(g.hops[j]) > 1 {
			j++
		}
		if j < len(g.hops) && j > h+1 && len(g.hops[j]) == 1 {
			div, conv := g.hops[h][0], g.hops[j][0]
			out = append(out, &Diamond{
				g: g, DivHop: h, ConvHop: j,
				Div: div, Conv: conv,
				DivAddr: g.Vertices[div].Addr, ConvAddr: g.Vertices[conv].Addr,
			})
		}
		if j > h+1 {
			h = j
		} else {
			h++
		}
	}
	return out
}

// MaxWidth is the maximum number of vertices found at a single hop of the
// diamond (endpoints excluded: they are single by construction, so
// including them would not change the maximum for a true diamond).
func (d *Diamond) MaxWidth() int {
	w := 1
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if n := d.g.Width(h); n > w {
			w = n
		}
	}
	return w
}

// MaxLength is the length of the longest path between the divergence and
// the convergence point, in edges. With hop-aligned graphs (every edge
// spans exactly one hop) this is ConvHop-DivHop.
func (d *Diamond) MaxLength() int { return d.ConvHop - d.DivHop }

// HopPairs returns the number of adjacent hop pairs inside the diamond.
func (d *Diamond) HopPairs() int { return d.ConvHop - d.DivHop }

// pairWidthAsymmetry computes the width asymmetry of the hop pair
// (h, h+1) per the Sec 5 definition.
func (g *Graph) pairWidthAsymmetry(h int) int {
	wi, wj := g.Width(h), g.Width(h+1)
	maxSuccDiff := func() int {
		lo, hi := 1<<30, 0
		for _, v := range g.hops[h] {
			n := g.OutDegree(v)
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if hi == 0 {
			return 0
		}
		return hi - lo
	}
	maxPredDiff := func() int {
		lo, hi := 1<<30, 0
		for _, v := range g.hops[h+1] {
			n := g.InDegree(v)
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if hi == 0 {
			return 0
		}
		return hi - lo
	}
	switch {
	case wi < wj:
		return maxSuccDiff()
	case wi > wj:
		return maxPredDiff()
	default:
		a, b := maxSuccDiff(), maxPredDiff()
		if a > b {
			return a
		}
		return b
	}
}

// MaxWidthAsymmetry is the largest pair width asymmetry across the
// diamond's hop pairs: the topological indicator of non-uniformity.
func (d *Diamond) MaxWidthAsymmetry() int {
	m := 0
	for h := d.DivHop; h < d.ConvHop; h++ {
		if a := d.g.pairWidthAsymmetry(h); a > m {
			m = a
		}
	}
	return m
}

// PairMeshed reports whether hops h and h+1 are meshed per the three-case
// definition of Sec 2.2.
func (g *Graph) PairMeshed(h int) bool {
	wi, wj := g.Width(h), g.Width(h+1)
	if wi == 0 || wj == 0 {
		return false
	}
	outDeg2 := func() bool {
		for _, v := range g.hops[h] {
			if g.OutDegree(v) >= 2 {
				return true
			}
		}
		return false
	}
	inDeg2 := func() bool {
		for _, v := range g.hops[h+1] {
			if g.InDegree(v) >= 2 {
				return true
			}
		}
		return false
	}
	switch {
	case wi == wj:
		return outDeg2() // equivalently inDeg2 when edge counts balance
	case wi < wj:
		return inDeg2()
	default:
		return outDeg2()
	}
}

// MeshedHopPairs returns the hop indices h (DivHop ≤ h < ConvHop) whose
// pair (h, h+1) is meshed.
func (d *Diamond) MeshedHopPairs() []int {
	var out []int
	for h := d.DivHop; h < d.ConvHop; h++ {
		if d.g.PairMeshed(h) {
			out = append(out, h)
		}
	}
	return out
}

// Meshed reports whether the diamond has at least one meshed hop pair.
func (d *Diamond) Meshed() bool { return len(d.MeshedHopPairs()) > 0 }

// RatioMeshedHops is the portion of the diamond's hop pairs that are
// meshed (Fig 6).
func (d *Diamond) RatioMeshedHops() float64 {
	p := d.HopPairs()
	if p == 0 {
		return 0
	}
	return float64(len(d.MeshedHopPairs())) / float64(p)
}

// Uniform reports whether the diamond has zero width asymmetry at every
// hop pair, the MDA-Lite's working assumption.
func (d *Diamond) Uniform() bool { return d.MaxWidthAsymmetry() == 0 }

// ReachProbabilities computes, under the assumption that every vertex
// load-balances uniformly at random across its successors, the probability
// that a probe with a random flow identifier reaches each vertex. The
// divergence vertex gets probability 1; probabilities propagate down hop by
// hop. Vertices outside [DivHop, ConvHop] get 0.
func (d *Diamond) ReachProbabilities() map[VertexID]float64 {
	p := make(map[VertexID]float64)
	p[d.Div] = 1
	for h := d.DivHop; h < d.ConvHop; h++ {
		for _, u := range d.g.hops[h] {
			pu := p[u]
			succ := d.g.Succ(u)
			if pu == 0 || len(succ) == 0 {
				continue
			}
			share := pu / float64(len(succ))
			for _, w := range succ {
				p[w] += share
			}
		}
	}
	return p
}

// MaxProbabilityDifference returns, across the diamond's hops, the largest
// difference in reach probability between two vertices at a common hop
// (Fig 8's metric).
func (d *Diamond) MaxProbabilityDifference() float64 {
	probs := d.ReachProbabilities()
	maxDiff := 0.0
	for h := d.DivHop + 1; h < d.ConvHop; h++ {
		lo, hi := 2.0, -1.0
		for _, v := range d.g.hops[h] {
			pv := probs[v]
			if pv < lo {
				lo = pv
			}
			if pv > hi {
				hi = pv
			}
		}
		if hi >= 0 && hi-lo > maxDiff {
			maxDiff = hi - lo
		}
	}
	return maxDiff
}

// Metrics bundles the survey metrics of one diamond.
type Metrics struct {
	MaxWidth          int
	MaxLength         int
	MaxWidthAsymmetry int
	RatioMeshedHops   float64
	Meshed            bool
	Uniform           bool
}

// ComputeMetrics evaluates all survey metrics for the diamond.
func (d *Diamond) ComputeMetrics() Metrics {
	return Metrics{
		MaxWidth:          d.MaxWidth(),
		MaxLength:         d.MaxLength(),
		MaxWidthAsymmetry: d.MaxWidthAsymmetry(),
		RatioMeshedHops:   d.RatioMeshedHops(),
		Meshed:            d.Meshed(),
		Uniform:           d.Uniform(),
	}
}

// Equal reports whether two graphs have identical hop structure: the same
// set of addresses per hop and the same edges (by address). Stars compare
// positionally.
func Equal(a, b *Graph) bool {
	if a.NumHops() != b.NumHops() {
		return false
	}
	for h := 0; h < a.NumHops(); h++ {
		if !sameAddrSet(a, a.hops[h], b, b.hops[h]) {
			return false
		}
	}
	return edgeSet(a) == edgeSet(b)
}

func sameAddrSet(ga *Graph, as []VertexID, gb *Graph, bs []VertexID) bool {
	if len(as) != len(bs) {
		return false
	}
	count := make(map[packet.Addr]int, len(as))
	for _, id := range as {
		count[ga.Vertices[id].Addr]++
	}
	for _, id := range bs {
		count[gb.Vertices[id].Addr]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func edgeSet(g *Graph) string {
	var edges []string
	for i := range g.Vertices {
		u := &g.Vertices[i]
		for _, w := range g.Succ(VertexID(i)) {
			edges = append(edges, fmt.Sprintf("%d/%s>%s", u.Hop, u.Addr, g.Vertices[w].Addr))
		}
	}
	sort.Strings(edges)
	return strings.Join(edges, ",")
}

// SubgraphCoverage reports how much of the reference graph ref is present
// in g: the fraction of ref's non-star vertices whose addresses g contains
// at the same hop, and the fraction of ref's edges present in g.
func SubgraphCoverage(g, ref *Graph) (vertexFrac, edgeFrac float64) {
	var vTot, vHit, eTot, eHit int
	for i := range ref.Vertices {
		v := &ref.Vertices[i]
		if v.Addr == StarAddr {
			continue
		}
		vTot++
		gid := None
		for _, id := range g.Hop(v.Hop) {
			if g.Vertices[id].Addr == v.Addr {
				gid = id
				break
			}
		}
		if gid != None {
			vHit++
		}
		for _, w := range ref.Succ(VertexID(i)) {
			wAddr := ref.Vertices[w].Addr
			if wAddr == StarAddr {
				continue
			}
			eTot++
			if gid == None {
				continue
			}
			for _, gw := range g.Succ(gid) {
				if g.Vertices[gw].Addr == wAddr {
					eHit++
					break
				}
			}
		}
	}
	if vTot == 0 {
		vertexFrac = 1
	} else {
		vertexFrac = float64(vHit) / float64(vTot)
	}
	if eTot == 0 {
		edgeFrac = 1
	} else {
		edgeFrac = float64(eHit) / float64(eTot)
	}
	return vertexFrac, edgeFrac
}
