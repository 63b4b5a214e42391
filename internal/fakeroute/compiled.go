package fakeroute

import (
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// The probe hot path. Each Path+graph generation (the main Graph, and the
// Alt graph once a routing change swaps it in) is compiled lazily, at the
// first probe that walks it, into dense per-vertex tables indexed by
// topo.VertexID. The forwarding loop then runs without map lookups: LB
// mode, dispatch weights (with their total presummed), the per-balancer
// hash state (its key already folded, nprand.KeyState) and the replying
// interface are all direct slice loads, and so, from a vertex's first
// reply on, is the IP ID counter view its Time Exceeded replies sample.
// Compilation happens after construction is complete (the Network
// contract: construction must finish before probing begins), so it
// observes every LB/WeightedEdges assignment made on the Path after
// AddPath returned. The views belong to the pair's Session and end with
// it, so a surveyed pair keeps nothing but its Path.

// compiledPath is the dense forwarding view of one Path over one graph
// generation. Only ctr changes once it is built.
type compiledPath struct {
	g      *topo.Graph
	entry  topo.VertexID
	dstHop int

	// Per-vertex tables, indexed by topo.VertexID.
	single  []topo.VertexID // the successor of a vertex with exactly one; topo.None otherwise
	mode    []LBMode
	weights [][]float64 // successor dispatch weights; nil = uniform
	wtotal  []float64   // presummed weights (same summation order as the old per-probe loop)
	key     []uint64    // nprand.KeyState(vertexKey)
	addr    []packet.Addr
	iface   []*Iface // replying interface; nil for stars and the destination
	// ctr is the session's counter view a vertex's Time Exceeded replies
	// sample, nil until its first reply (see Session.indirectIPID).
	ctr []*ctrView
}

// compiledFor returns the compiled view of g, which must be p.Graph or
// p.Alt of the session's own path p; it keeps its views until the
// session ends. The caller holds s.mu.
func (s *Session) compiledFor(p *Path, g *topo.Graph) *compiledPath {
	slot := &s.compiledMain
	if g != p.Graph {
		slot = &s.compiledAlt
	}
	if *slot == nil {
		*slot = s.net.compilePath(p, g)
	}
	return *slot
}

// compilePath builds the dense tables for one graph generation.
func (n *Network) compilePath(p *Path, g *topo.Graph) *compiledPath {
	nv := g.NumVertices()
	cp := &compiledPath{
		g:       g,
		entry:   g.Hop(0)[0],
		dstHop:  g.NumHops() - 1,
		single:  make([]topo.VertexID, nv),
		mode:    make([]LBMode, nv),
		weights: make([][]float64, nv),
		wtotal:  make([]float64, nv),
		key:     make([]uint64, nv),
		addr:    make([]packet.Addr, nv),
		iface:   make([]*Iface, nv),
		ctr:     make([]*ctrView, nv),
	}
	for i := 0; i < nv; i++ {
		v := topo.VertexID(i)
		cp.single[v] = topo.None
		if succ := g.Succ(v); len(succ) == 1 {
			cp.single[v] = succ[0]
		}
		cp.mode[v] = p.LB[v]
		cp.addr[v] = g.V(v).Addr
		cp.key[v] = nprand.KeyState(vertexKey(p, g, v))
		if w := p.WeightedEdges[v]; len(w) > 0 {
			cp.weights[v] = w
			var total float64
			for _, wi := range w {
				total += wi
			}
			cp.wtotal[v] = total
		}
		cp.iface[v] = n.ifaces[cp.addr[v]] // AddIface refuses StarAddr
	}
	return cp
}

// nextVertex applies the load balancing policy of vertex v for the probe,
// over the compiled tables. It must consume randomness exactly as the
// original map-based walker did: one s.rng draw per multi-successor
// per-packet balancer, none otherwise, and the weighted dispatch keeps
// the exact subtractive scan (the same float operations in the same
// order) so boundary flows pick the same successor. Most hops of a
// walk leave a single-successor vertex; its successor is one load from
// cp.single, where the graph's successor span would take two dependent
// loads and an address computation.
func (s *Session) nextVertex(cp *compiledPath, v topo.VertexID, pp *packet.ParsedProbe, flowKey uint64) topo.VertexID {
	if w := cp.single[v]; w != topo.None {
		return w
	}
	succ := cp.g.Succ(v)
	if len(succ) == 0 {
		return topo.None
	}
	mode := cp.mode[v]
	var idx int
	if w := cp.weights[v]; w != nil {
		// Weighted dispatch: hash the flow into [0,1) deterministically
		// and walk the weights, so one flow still sticks to one successor.
		var x float64
		switch mode {
		case LBPerPacket:
			x = s.rng.Float64()
		case LBPerDestination:
			x = float64(nprand.FlowHashFrom(cp.key[v], uint64(pp.IP.Dst))>>11) / (1 << 53)
		default:
			x = float64(nprand.FlowHashFrom(cp.key[v], flowKey)>>11) / (1 << 53)
		}
		x *= cp.wtotal[v]
		for i, wi := range w {
			x -= wi
			if x < 0 {
				idx = i
				break
			}
			idx = i
		}
		return succ[idx]
	}
	switch mode {
	case LBPerPacket:
		idx = s.rng.Intn(len(succ))
	case LBPerDestination:
		idx = int(nprand.FlowHashFrom(cp.key[v], uint64(pp.IP.Dst)) % uint64(len(succ)))
	default:
		idx = int(nprand.FlowHashFrom(cp.key[v], flowKey) % uint64(len(succ)))
	}
	return succ[idx]
}
