package fakeroute

import (
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// The probe hot path. Each Path+graph generation (the main Graph, and the
// Alt graph once a routing change swaps it in) is compiled once, lazily at
// first probe, into dense per-vertex tables indexed by topo.VertexID. The
// forwarding loop then runs without map lookups: LB mode, dispatch
// weights (with their total presummed), the per-balancer hash key and the
// replying interface are all direct slice loads. Compilation happens
// after construction is complete (the Network contract: construction must
// finish before probing begins), so it observes every LB/WeightedEdges
// assignment made on the Path after AddPath returned.
//
// On top of the dense tables, deterministic flow walks are memoized: for
// per-flow and per-destination balancing the vertex sequence a flow
// traverses is a pure function of (flow key, graph generation), and a
// flow is probed at more than one TTL (the MDA's node-control mints at
// two adjacent ones, the MDA-Lite's reused flows at many), so each
// Session caches the walk as far as it has been asked for and replays it
// by TTL. The cache is bypassed whenever handling could consume
// randomness or per-probe mutable state on the walk itself — a
// per-packet balancer anywhere in the graph, reply loss, or a
// rate-limited router — so the RNG draw order, and with it every emitted
// byte, is identical with and without the cache.

// compiledPath is the dense forwarding view of one Path over one graph
// generation. It is immutable once built; the pointer doubles as the
// memoization key for flow walks over this generation.
type compiledPath struct {
	g      *topo.Graph
	entry  topo.VertexID
	dstHop int

	// Per-vertex tables, indexed by topo.VertexID.
	mode    []LBMode
	weights [][]float64 // successor dispatch weights; nil = uniform
	wtotal  []float64   // presummed weights (same summation order as the old per-probe loop)
	key     []uint64    // vertexKey, precomputed
	addr    []packet.Addr
	iface   []*Iface // replying interface; nil for stars and the destination

	// memoizable reports that a flow walk over this graph consumes no
	// randomness and touches no rate-limit state: no multi-successor
	// per-packet balancer, and no rate-limited router on any vertex.
	memoizable bool
}

// compiledFor returns the compiled view of g for p, building it on first
// use. g must be p.Graph or p.Alt.
func (n *Network) compiledFor(p *Path, g *topo.Graph) *compiledPath {
	slot := &p.compiledMain
	if g != p.Graph {
		slot = &p.compiledAlt
	}
	if cp := slot.Load(); cp != nil && cp.g == g {
		return cp
	}
	p.compileMu.Lock()
	defer p.compileMu.Unlock()
	if cp := slot.Load(); cp != nil && cp.g == g {
		return cp
	}
	cp := n.compilePath(p, g)
	slot.Store(cp)
	return cp
}

// compilePath builds the dense tables for one graph generation.
func (n *Network) compilePath(p *Path, g *topo.Graph) *compiledPath {
	nv := g.NumVertices()
	cp := &compiledPath{
		g:          g,
		entry:      g.Hop(0)[0],
		dstHop:     g.NumHops() - 1,
		mode:       make([]LBMode, nv),
		weights:    make([][]float64, nv),
		wtotal:     make([]float64, nv),
		key:        make([]uint64, nv),
		addr:       make([]packet.Addr, nv),
		iface:      make([]*Iface, nv),
		memoizable: true,
	}
	for i := 0; i < nv; i++ {
		v := topo.VertexID(i)
		cp.mode[v] = p.LB[v]
		cp.addr[v] = g.V(v).Addr
		cp.key[v] = vertexKey(p, g, v)
		if w := p.WeightedEdges[v]; len(w) > 0 {
			cp.weights[v] = w
			var total float64
			for _, wi := range w {
				total += wi
			}
			cp.wtotal[v] = total
		}
		if cp.addr[v] != topo.StarAddr {
			if ifc := n.ifaces[cp.addr[v]]; ifc != nil {
				cp.iface[v] = ifc
				if ifc.Router.RateLimit > 0 {
					cp.memoizable = false
				}
			}
		}
		if cp.mode[v] == LBPerPacket && g.OutDegree(v) >= 2 {
			cp.memoizable = false
		}
	}
	return cp
}

// nextVertex applies the load balancing policy of vertex v for the probe,
// over the compiled tables. It must consume randomness exactly as the
// original map-based walker did: one s.rng draw per multi-successor
// per-packet balancer, none otherwise, and the weighted dispatch keeps
// the exact subtractive scan (the same float operations in the same
// order) so boundary flows pick the same successor.
func (s *Session) nextVertex(cp *compiledPath, v topo.VertexID, pp *packet.ParsedProbe, flowKey uint64) topo.VertexID {
	succ := cp.g.Succ(v)
	switch len(succ) {
	case 0:
		return topo.None
	case 1:
		return succ[0]
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
			x = float64(nprand.FlowHash(cp.key[v], uint64(pp.IP.Dst))>>11) / (1 << 53)
		default:
			x = float64(nprand.FlowHash(cp.key[v], flowKey)>>11) / (1 << 53)
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
		idx = int(nprand.FlowHash(cp.key[v], uint64(pp.IP.Dst)) % uint64(len(succ)))
	default:
		idx = int(nprand.FlowHash(cp.key[v], flowKey) % uint64(len(succ)))
	}
	return succ[idx]
}

// walkKey identifies one memoized flow walk: the compiled generation
// (pointer identity) plus the probe's flow key.
type walkKey struct {
	cp   *compiledPath
	flow uint64
}

// walkFor returns the memoized vertex sequence the flow traverses over
// cp, walked at least as far as hop (or to where the walk ends, if that
// is nearer). seq[h] is the vertex at forward distance h. Only valid when
// cp.memoizable (the walk consumes no RNG).
//
// The walk is extended lazily: most MDA flows are node-control mints
// probed at one or two TTLs, so walking every new flow to the destination
// hop did several times the work the trace ever reads. Steps of a
// deterministic walk do not depend on when they are taken, so the
// sequence is the same prefix by prefix. A sequence is complete — at the
// destination hop or at a dead end — exactly when len(seq) == cap(seq):
// it is created with capacity dstHop+1, and a dead end clips the capacity
// to the length.
func (s *Session) walkFor(cp *compiledPath, pp *packet.ParsedProbe, flowKey uint64, hop int) []topo.VertexID {
	k := walkKey{cp: cp, flow: flowKey}
	seq, ok := s.walks[k]
	switch {
	case !ok:
		seq = s.newWalk(cp)
	case hop < len(seq) || len(seq) == cap(seq):
		return seq
	}
	for len(seq) <= hop && len(seq) < cap(seq) {
		next := s.nextVertex(cp, seq[len(seq)-1], pp, flowKey)
		if next == topo.None {
			seq = seq[:len(seq):len(seq)] // dead end: silent drop (routing hole)
			break
		}
		seq = append(seq, next)
	}
	if s.walks == nil {
		s.walks = make(map[walkKey][]topo.VertexID)
	}
	s.walks[k] = seq
	return seq
}

// walkSlabChunk is how many vertex IDs one slab allocation holds: a dozen
// or two walks of a typical path. Sessions live as long as their network,
// so the unused tail of a session's last chunk is retained with it; the
// chunk is kept small for that reason.
const walkSlabChunk = 256

// newWalk starts a walk at cp's entry vertex with room to reach the
// destination hop, carved from the session's slab so that a trace's
// hundreds of flows cost a handful of allocations. The capacity is capped,
// so a walk can never grow into its neighbour.
func (s *Session) newWalk(cp *compiledPath) []topo.VertexID {
	n := cp.dstHop + 1
	if n > walkSlabChunk/4 {
		return append(make([]topo.VertexID, 0, n), cp.entry)
	}
	if len(s.walkSlab) < n {
		s.walkSlab = make([]topo.VertexID, walkSlabChunk)
	}
	seq := append(s.walkSlab[:0:n], cp.entry)
	s.walkSlab = s.walkSlab[n:]
	return seq
}
