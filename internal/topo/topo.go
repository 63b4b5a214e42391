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
	"math/bits"
	"slices"
	"sort"
	"strings"

	"mmlpt/internal/packet"
)

// VertexID indexes Graph.Vertices.
type VertexID int32

// None marks the absence of a vertex.
const None VertexID = -1

// StarAddr is the pseudo-address used for a non-responsive ("star") vertex.
// Stars never equal a real interface address.
const StarAddr packet.Addr = 0

// Vertex is one IP interface observed (or simulated) at a hop: 16 bytes
// where int is 64 bits wide, 4 of them padding.
type Vertex struct {
	Hop  int
	Addr packet.Addr
}

// Graph is a multipath route topology whose vertices are keyed by
// (address, hop). Successor lists are deduplicated and keep the order
// edges were first recorded in, which keeps construction deterministic
// for a deterministic caller.
//
// A Graph is a few flat slices: no map, and no allocation per vertex or
// per edge. Each vertex's successor list is a span of one graph-owned
// slab, and so is each hop's vertex list, beside a parallel column of
// the hop's addresses that AddVertex scans to deduplicate. Only a graph
// with a hop of wideHop or more vertices keeps a hash index as well.
// Every slice grows by append's doubling, so building a graph of V
// vertices allocates O(log V) times.
type Graph struct {
	Vertices []Vertex
	adj      []adjacency   // vertex → successor span, in-degree
	succ     []VertexID    // successor lists
	hops     []span        // hop → its span of hopIDs and hopAddrs
	hopIDs   []VertexID    // hop lists
	hopAddrs []packet.Addr // hopAddrs[i] is Vertices[hopIDs[i]].Addr

	// wide indexes the non-star vertices by (address, hop) once a hop
	// holds wideHop vertices: an open-addressing table of VertexID+1, 0
	// for an empty slot, at most a quarter full. nil until then.
	wide []VertexID
}

// span locates one list in a slab: slab[off:off+n], with room to grow to
// off+cap.
type span struct{ off, n, cap int32 }

// of returns the list s locates in slab. Its capacity ends with the list,
// so a caller's append copies instead of writing into a neighbour.
func of[T any](slab []T, s span) []T {
	return slab[s.off : s.off+s.n : s.off+s.n]
}

// push appends x to the list s locates in slab and returns the slab. A
// full list grows in place when it ends the slab, and otherwise moves to
// the slab's tail at twice its capacity; the room it leaves behind is
// not reused. The decision reads only s and len(slab), so two slabs of
// equal length pushed with the same span stay parallel.
func push[T any](slab []T, s *span, x T) []T {
	if s.n == s.cap {
		c := max(2*s.cap, 1)
		if int(s.off+s.cap) == len(slab) {
			slab = slices.Grow(slab, int(c-s.cap))[:s.off+c]
		} else {
			off := int32(len(slab))
			slab = append(slices.Grow(slab, int(c)), slab[s.off:s.off+s.n]...)[:off+c]
			s.off = off
		}
		s.cap = c
	}
	slab[s.off+s.n] = x
	s.n++
	return slab
}

// adjacency is a vertex's successor span and in-degree.
type adjacency struct {
	succ  span
	indeg int32
}

// New returns an empty Graph. The zero Graph is ready to use too.
func New() *Graph { return &Graph{} }

// NumHops returns the number of hops (TTL levels) present.
func (g *Graph) NumHops() int { return len(g.hops) }

// Hop returns the vertex IDs at hop h, or nil if h is out of range or
// empty. The slice is owned by the graph; callers must not modify it.
func (g *Graph) Hop(h int) []VertexID {
	if h < 0 || h >= len(g.hops) || g.hops[h].n == 0 {
		return nil
	}
	return of(g.hopIDs, g.hops[h])
}

// Width returns the number of vertices at hop h.
func (g *Graph) Width(h int) int { return len(g.Hop(h)) }

// Lookup returns the first-added vertex with the given address, or None.
// Stars have no address to look up. It scans the vertex table.
func (g *Graph) Lookup(addr packet.Addr) VertexID {
	if addr == StarAddr {
		return None
	}
	for i := range g.Vertices {
		if g.Vertices[i].Addr == addr {
			return VertexID(i)
		}
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
	for len(g.hops) <= h {
		g.hops = append(g.hops, span{})
	}
	s := g.hops[h]
	if addr != StarAddr {
		if g.wide != nil {
			if _, id := g.find(h, addr); id != None {
				return id
			}
		} else if i := slices.Index(of(g.hopAddrs, s), addr); i >= 0 {
			return g.hopIDs[int(s.off)+i]
		}
	}
	id := VertexID(len(g.Vertices))
	g.Vertices = append(g.Vertices, Vertex{Hop: h, Addr: addr})
	g.adj = append(g.adj, adjacency{})
	g.hopIDs = push(g.hopIDs, &g.hops[h], id)
	g.hopAddrs = push(g.hopAddrs, &s, addr)
	if addr != StarAddr && (g.wide != nil || s.n >= wideHop) {
		g.indexWide(id)
	}
	return id
}

// wideHop is the hop width from which AddVertex stops scanning hops for a
// duplicate and looks it up in the graph's wide index instead. The scan
// reads the hop's address column at about a cycle per vertex, which beats
// a hash lookup on the hops a survey sees and loses to it on a hop of
// dozens of load-balanced interfaces.
const wideHop = 16

// find returns the wide index's slot for (h, addr) and the vertex there,
// or the empty slot that ends its probe sequence and None.
func (g *Graph) find(h int, addr packet.Addr) (int, VertexID) {
	mask := len(g.wide) - 1
	k := (uint64(addr)<<8 | uint64(h&0xff)) * 0x9e3779b97f4a7c15 // Fibonacci hashing: the top bits mix best
	for i := int(k >> (64 - bits.Len(uint(mask)))); ; i = (i + 1) & mask {
		e := g.wide[i]
		if e == 0 {
			return i, None
		}
		if v := &g.Vertices[e-1]; v.Addr == addr && v.Hop == h {
			return i, e - 1
		}
	}
}

// indexWide enters id, a new non-star vertex, into the wide index,
// building the index over every non-star vertex when there is none yet
// or when it is a quarter full. At that load a hop's run of consecutive
// addresses almost never shares a slot, so a lookup reads one slot.
func (g *Graph) indexWide(id VertexID) {
	if 4*len(g.Vertices) <= len(g.wide) {
		i, _ := g.find(g.Vertices[id].Hop, g.Vertices[id].Addr)
		g.wide[i] = id + 1
		return
	}
	g.wide = make([]VertexID, 1<<bits.Len(uint(4*len(g.Vertices))))
	for v := range g.Vertices {
		if x := &g.Vertices[v]; x.Addr != StarAddr {
			i, _ := g.find(x.Hop, x.Addr)
			g.wide[i] = VertexID(v) + 1
		}
	}
}

// AddEdge records a link from u (at hop h) to w (at hop h+1). Duplicate
// edges are ignored.
func (g *Graph) AddEdge(u, w VertexID) {
	if u == None || w == None {
		return
	}
	a := &g.adj[u]
	for _, s := range of(g.succ, a.succ) {
		if s == w {
			return
		}
	}
	g.succ = push(g.succ, &a.succ, w)
	g.adj[w].indeg++
}

// Succ returns the successor vertex IDs of v, in the order their edges
// were first recorded. The slice is owned by the graph; callers must not
// modify it.
func (g *Graph) Succ(v VertexID) []VertexID { return of(g.succ, g.adj[v].succ) }

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v VertexID) int { return int(g.adj[v].succ.n) }

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v VertexID) int { return int(g.adj[v].indeg) }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.adj {
		n += int(g.adj[i].succ.n)
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
		for _, id := range g.Hop(h) {
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
// parent graph; Div the single vertex at DivHop, DivAddr and ConvAddr
// the addresses of the single vertices at both.
type Diamond struct {
	g                 *Graph
	DivHop, ConvHop   int
	Div               VertexID
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
		if g.Width(h) != 1 {
			h++
			continue
		}
		// h is a candidate divergence point; find the next single-vertex
		// hop after at least one multi-vertex hop.
		j := h + 1
		for j < len(g.hops) && g.Width(j) > 1 {
			j++
		}
		if j < len(g.hops) && j > h+1 && g.Width(j) == 1 {
			div, conv := g.Hop(h)[0], g.Hop(j)[0]
			out = append(out, &Diamond{
				g: g, DivHop: h, ConvHop: j, Div: div,
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
		for _, v := range g.Hop(h) {
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
		for _, v := range g.Hop(h + 1) {
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
		for _, v := range g.Hop(h) {
			if g.OutDegree(v) >= 2 {
				return true
			}
		}
		return false
	}
	inDeg2 := func() bool {
		for _, v := range g.Hop(h + 1) {
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
// hop. The result is indexed by VertexID; vertices outside
// [DivHop, ConvHop] get 0.
func (d *Diamond) ReachProbabilities() []float64 {
	p := make([]float64, len(d.g.Vertices))
	p[d.Div] = 1
	for h := d.DivHop; h < d.ConvHop; h++ {
		for _, u := range d.g.Hop(h) {
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
		for _, v := range d.g.Hop(h) {
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
		if !sameAddrSet(a, a.Hop(h), b, b.Hop(h)) {
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
