package fakeroute

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// LBMode selects a load balancer's dispatch policy.
type LBMode int

const (
	// LBPerFlow hashes the probe's 5-tuple: the common case the Paris
	// technique and the MDA are built for.
	LBPerFlow LBMode = iota
	// LBPerPacket dispatches uniformly at random per packet, violating
	// MDA assumption (2). Rare in the wild (Augustin et al. 2011); used
	// for failure-injection tests.
	LBPerPacket
	// LBPerDestination hashes only the destination address, so all probe
	// flows to one destination follow a single path.
	LBPerDestination
)

// PathKey identifies a ground-truth path.
type PathKey struct {
	Src, Dst packet.Addr
}

// Path is the ground-truth topology for one (source, destination) pair.
// Hop 0 of the graph holds the single first-hop vertex; the last hop holds
// a vertex whose address is the destination.
type Path struct {
	Key   PathKey
	Graph *topo.Graph
	// LB maps a vertex to its dispatch policy; vertices absent from the
	// map use LBPerFlow.
	LB map[topo.VertexID]LBMode
	// WeightedEdges optionally assigns non-uniform dispatch weights to a
	// vertex's successor edges (violating MDA assumption (3)). Keyed by
	// vertex; the slice is index-aligned with the vertex's successors.
	WeightedEdges map[topo.VertexID][]float64
	// Alt, when non-nil, replaces Graph once the trace clock reaches
	// AltAt: a routing change mid-measurement, violating MDA assumption
	// (1). The alternate graph's interfaces must be registered.
	Alt   *topo.Graph
	AltAt uint64

	// Lazily-built dense forwarding tables, one per graph generation
	// (see compiled.go). Compilation happens at first probe, after all
	// LB/WeightedEdges/Alt configuration is done (the construction-
	// before-probing contract).
	compileMu    sync.Mutex
	compiledMain atomic.Pointer[compiledPath]
	compiledAlt  atomic.Pointer[compiledPath]
}

// activeGraph returns the topology in force at tick now.
func (p *Path) activeGraph(now uint64) *topo.Graph {
	if p.Alt != nil && now >= p.AltAt {
		return p.Alt
	}
	return p.Graph
}

// Network is the simulated internet.
//
// Construction (NewRouter, AddIface, AddPath, EnsureIfaces and the
// topology builders) is not synchronized and must complete before probing
// begins. Probing itself — HandleProbe, or Session.HandleProbe obtained
// from SessionFor — is safe for concurrent use: all per-probe mutable
// state (randomness, clocks, IP ID counters, token buckets) lives in
// per-trace Sessions, so concurrent traces of distinct pairs neither race
// nor perturb each other's deterministic streams.
type Network struct {
	seed    uint64
	rng     *nprand.Source // construction-time randomness only
	routers []*Router
	ifaces  map[packet.Addr]*Iface
	paths   map[PathKey]*Path

	// LossProb drops each reply independently with this probability
	// (models ICMP rate limiting noise and loss; default 0). Set it
	// before probing begins.
	LossProb float64

	// disableWalkMemo turns off flow-walk memoization, forcing every
	// probe through the fresh TTL-bounded walk. Test hook only: output
	// must be byte-identical either way (see TestWalkMemoByteIdentical).
	disableWalkMemo bool

	sessMu   sync.RWMutex
	sessions map[PathKey]*Session

	// Stats, updated atomically across all sessions.
	ProbesSeen  uint64
	RepliesSent uint64
	Dropped     uint64
}

// NewNetwork creates an empty simulated network with the given seed.
func NewNetwork(seed uint64) *Network {
	return &Network{
		seed:     seed,
		rng:      nprand.New(seed),
		ifaces:   make(map[packet.Addr]*Iface),
		paths:    make(map[PathKey]*Path),
		sessions: make(map[PathKey]*Session),
	}
}

// NewRouter allocates a router with sane defaults: shared IP ID counter,
// modest background velocity, Cisco-like fingerprint, echo-responsive.
// The counter starts at a random phase, as real counters do: without
// random phases, independent routers' counters would run in near-lockstep
// and the Monotonic Bounds Test would see false aliases everywhere.
func (n *Network) NewRouter() *Router {
	r := &Router{
		ID:                 len(n.routers),
		IPID:               IPIDShared,
		Velocity:           0.2,
		InitialTTLExceeded: 255,
		InitialTTLEcho:     255,
		RespondsToEcho:     true,
		sharedCtr:          uint16(n.rng.Uint64()),
	}
	n.routers = append(n.routers, r)
	return r
}

// Routers returns all routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }

// AddIface assigns addr to router r. It panics if the address is taken.
func (n *Network) AddIface(r *Router, addr packet.Addr) *Iface {
	if addr == 0 {
		panic("fakeroute: zero interface address")
	}
	if _, dup := n.ifaces[addr]; dup {
		panic(fmt.Sprintf("fakeroute: duplicate interface %s", addr))
	}
	ifc := &Iface{Addr: addr, Router: r, ctr: uint16(n.rng.Uint64())}
	n.ifaces[addr] = ifc
	return ifc
}

// Iface returns the interface with the given address, or nil.
func (n *Network) Iface(addr packet.Addr) *Iface { return n.ifaces[addr] }

// RouterOf returns the router owning addr, or nil.
func (n *Network) RouterOf(addr packet.Addr) *Router {
	if ifc := n.ifaces[addr]; ifc != nil {
		return ifc.Router
	}
	return nil
}

// AddPath registers the ground-truth topology for (src, dst). Every
// non-destination vertex address must already be an interface; the helper
// EnsureIfaces can create one router per address first. The final hop must
// contain exactly one vertex whose address equals dst.
func (n *Network) AddPath(src, dst packet.Addr, g *topo.Graph) *Path {
	if g.NumHops() == 0 {
		panic("fakeroute: empty path graph")
	}
	last := g.Hop(g.NumHops() - 1)
	if len(last) != 1 || g.V(last[0]).Addr != dst {
		panic("fakeroute: path must end at a single destination vertex")
	}
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.Addr == topo.StarAddr || v.Addr == dst {
			continue
		}
		if n.ifaces[v.Addr] == nil {
			panic(fmt.Sprintf("fakeroute: vertex %s has no interface; call EnsureIfaces", v.Addr))
		}
	}
	p := &Path{Key: PathKey{Src: src, Dst: dst}, Graph: g, LB: map[topo.VertexID]LBMode{}}
	n.paths[p.Key] = p
	return p
}

// EnsureIfaces creates, for every non-star non-destination address in g
// that has no interface yet, a fresh router owning just that address. This
// is the "every IP is its own router" default; alias-resolution scenarios
// group addresses onto routers explicitly instead.
func (n *Network) EnsureIfaces(g *topo.Graph, dst packet.Addr) {
	for i := range g.Vertices {
		a := g.Vertices[i].Addr
		if a == topo.StarAddr || a == dst || n.ifaces[a] != nil {
			continue
		}
		n.AddIface(n.NewRouter(), a)
	}
}

// Path returns the registered path for (src, dst), or nil.
func (n *Network) Path(src, dst packet.Addr) *Path { return n.paths[PathKey{src, dst}] }

// Session holds the per-trace mutable state of the network: a
// deterministic random stream, a tick counter, and this trace's view of
// every router's IP ID counters and rate-limit token buckets. Sessions
// are keyed by (source, destination); the stream is derived purely from
// the network seed and the key, so a trace's replies depend only on its
// own probe sequence — never on how traces of other pairs interleave.
// That property is what makes a parallel survey run byte-identical to a
// serial one.
//
// A Session serializes its own probe handling with a mutex, but the
// reply slice HandleProbe returns is session-owned scratch, valid only
// until the session's next HandleProbe call — goroutines sharing one
// session must therefore coordinate so each caller copies or parses its
// reply before the next probe is handled (a single SimProber does this
// by serializing the whole exchange).
type Session struct {
	net *Network
	key PathKey

	mu      sync.Mutex
	rng     *nprand.Source
	clock   uint64
	routers map[*Router]*ctrView
	ifaces  map[*Iface]*ctrView
	buckets map[*Router]*bucket

	// Memoized flow walks over compiled graph generations (compiled.go),
	// and the unused tail of the chunk new walks are carved from.
	walks    map[walkKey][]topo.VertexID
	walkSlab []topo.VertexID

	// Reusable scratch for the zero-allocation probe hot path: the
	// parsed probe, the quoted-datagram copy, the ICMP body, and the
	// outgoing reply. All are used only under mu; outBuf backs the slice
	// HandleProbe returns.
	pp       packet.ParsedProbe
	quoteBuf []byte
	bodyBuf  []byte
	outBuf   []byte
}

// ctrView is a session's view of one IP ID counter.
type ctrView struct {
	ctr  uint16
	last uint64 // tick of the last sample
}

// bucket is a session's view of one router's rate-limit token bucket.
type bucket struct {
	tokens float64
	tick   uint64
}

// SessionFor returns the per-trace session for (src, dst), creating it on
// first use. Repeated calls return the same session, so repeated traces
// of one pair see counters and clocks carry over, as they would against a
// real network.
func (n *Network) SessionFor(src, dst packet.Addr) *Session {
	key := PathKey{Src: src, Dst: dst}
	n.sessMu.RLock()
	s := n.sessions[key]
	n.sessMu.RUnlock()
	if s != nil {
		return s
	}
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	if s := n.sessions[key]; s != nil {
		return s
	}
	s = &Session{
		net:     n,
		key:     key,
		rng:     nprand.New(n.seed ^ nprand.FlowHash(uint64(src), uint64(dst))),
		routers: make(map[*Router]*ctrView),
		ifaces:  make(map[*Iface]*ctrView),
		buckets: make(map[*Router]*bucket),
	}
	n.sessions[key] = s
	return s
}

// HandleProbe accepts one serialized probe packet and dispatches it to
// the session of the packet's (source, destination) pair. Probers that
// interleave traceroute and direct echo probes of one trace should hold a
// Session from SessionFor and call its HandleProbe instead, so that both
// probe families sample the same counter views (the Monotonic Bounds Test
// depends on that).
//
// The returned reply slice is owned by that session and valid only until
// the session's next HandleProbe call; callers that retain reply bytes
// must copy them.
//
// A packet too short to carry an IPv4 header is dropped here, before the
// session lookup: it has no addresses, so routing it to the zero-pair
// session would materialize a spurious (0.0.0.0, 0.0.0.0) session.
func (n *Network) HandleProbe(raw []byte) []byte {
	if len(raw) < packet.IPv4HeaderLen {
		atomic.AddUint64(&n.ProbesSeen, 1)
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	src := packet.Addr(uint32(raw[12])<<24 | uint32(raw[13])<<16 | uint32(raw[14])<<8 | uint32(raw[15]))
	dst := packet.Addr(uint32(raw[16])<<24 | uint32(raw[17])<<16 | uint32(raw[18])<<8 | uint32(raw[19]))
	return n.SessionFor(src, dst).HandleProbe(raw)
}

// vertexKey is the stable per-load-balancer hash key. Star vertices have
// no address, so their hop and path key disambiguate them.
func vertexKey(p *Path, g *topo.Graph, v topo.VertexID) uint64 {
	a := g.V(v).Addr
	if a != topo.StarAddr {
		return uint64(a)
	}
	return uint64(p.Key.Src)<<32 ^ uint64(p.Key.Dst) ^ uint64(v)<<8 ^ 0xdead
}

// HandleProbe accepts one serialized probe packet and returns the
// serialized reply, or nil if the probe is dropped (loss, rate limiting,
// star hop, or no reply per the topology).
//
// The returned slice is owned by the session and valid only until the
// session's next HandleProbe call: the reply is crafted into a reusable
// scratch buffer so the steady-state round trip allocates nothing.
// Callers that retain reply bytes must copy them (the usual caller,
// packet.ParseReplyInto, retains nothing).
func (s *Session) HandleProbe(raw []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.net
	s.clock++
	now := s.clock
	atomic.AddUint64(&n.ProbesSeen, 1)

	// Echo (direct) probes are dispatched to the target interface.
	var outerProto byte
	if len(raw) >= 10 {
		outerProto = raw[9]
	}
	if outerProto == packet.ProtoICMP {
		return s.handleEcho(raw, now)
	}

	if err := packet.ParseProbeInto(&s.pp, raw); err != nil {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	pp := &s.pp
	p := n.paths[PathKey{Src: pp.IP.Src, Dst: pp.IP.Dst}]
	if p == nil {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	g := p.activeGraph(now)
	cp := n.compiledFor(p, g)
	flowKey := pp.FlowKey()

	// The probe is forwarded until its TTL expires or it reaches the
	// destination host. hop h is reached after h+1 TTL decrements. When
	// the walk is a pure function of the flow (cp.memoizable) and loss
	// cannot consume an RNG draw, replay the memoized walk by TTL;
	// otherwise walk fresh, drawing randomness exactly where the original
	// per-probe loop would.
	var cur topo.VertexID
	var hop int
	if cp.memoizable && !n.disableWalkMemo && n.LossProb == 0 {
		hop = min(max(int(pp.IP.TTL)-1, 0), cp.dstHop)
		seq := s.walkFor(cp, pp, flowKey, hop)
		if hop > len(seq)-1 {
			hop = len(seq) - 1 // dead end short of the TTL
		}
		cur = seq[hop]
	} else {
		cur = cp.entry
		ttl := int(pp.IP.TTL)
		for ttl > 1 && hop < cp.dstHop {
			next := s.nextVertex(cp, cur, pp, flowKey)
			if next == topo.None {
				break // dead end: silent drop (routing hole)
			}
			cur = next
			hop++
			ttl--
		}
	}
	atDst := hop == cp.dstHop
	if cp.addr[cur] == topo.StarAddr {
		atomic.AddUint64(&n.Dropped, 1)
		return nil // star: the hop never answers
	}
	if n.LossProb > 0 && s.rng.Float64() < n.LossProb {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	if atDst {
		return s.craftPortUnreachable(pp, cp.addr[cur], hop, now)
	}
	ifc := cp.iface[cur]
	if ifc == nil {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	if !s.allowReply(ifc.Router, now) {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	return s.craftTimeExceeded(pp, ifc, hop, raw, now)
}

// craftTimeExceeded builds the ICMP Time Exceeded reply from ifc at
// forward distance hop (0-based), into the session's scratch buffers.
func (s *Session) craftTimeExceeded(pp *packet.ParsedProbe, ifc *Iface, hop int, probeRaw []byte, now uint64) []byte {
	r := ifc.Router
	// The router quotes the probe datagram as received: the full IP
	// header plus payload (our probes are small, so the quote is whole).
	// probeRaw is referenced directly — ICMP.SerializeTo copies the
	// payload into the body buffer, and the caller's probe bytes stay
	// untouched for the whole call.
	icmp := packet.ICMP{
		Type:    packet.ICMPTypeTimeExceeded,
		Code:    packet.ICMPCodeTTLExceeded,
		Payload: probeRaw,
	}
	if label := ifc.effectiveLabel(now); label != 0 {
		icmp.Extensions = packet.EncodeMPLSExtension([]packet.MPLSLabelStackEntry{
			{Label: label, S: true, TTL: 1},
		})
	}
	replyTTL := int(r.InitialTTLExceeded) - (hop + 1)
	if replyTTL < 1 {
		replyTTL = 1
	}
	ip := packet.IPv4{
		ID:       s.nextIPID(ifc, true, pp.IP.ID, now),
		TTL:      byte(replyTTL),
		Protocol: packet.ProtoICMP,
		Src:      ifc.Addr,
		Dst:      pp.IP.Src,
	}
	return s.emitReply(&ip, &icmp)
}

// craftPortUnreachable builds the destination's ICMP Port Unreachable.
func (s *Session) craftPortUnreachable(pp *packet.ParsedProbe, dst packet.Addr, hop int, now uint64) []byte {
	// Re-serialize the quoted probe from its parsed form: the host quotes
	// the datagram as received, with the TTL it saw on arrival.
	quoted := packet.Probe{
		Src: pp.IP.Src, Dst: pp.IP.Dst,
		FlowID: pp.FlowID, TTL: 1, Checksum: pp.Identity,
	}
	s.quoteBuf = quoted.AppendTo(s.quoteBuf[:0])
	icmp := packet.ICMP{
		Type:    packet.ICMPTypeDestUnreachable,
		Code:    packet.ICMPCodePortUnreachable,
		Payload: s.quoteBuf,
	}
	replyTTL := 64 - (hop + 1)
	if replyTTL < 1 {
		replyTTL = 1
	}
	// Destination hosts typically have a normal host IP stack: shared,
	// fast-moving ID counter. Model with a per-destination hash-derived
	// stride so repeated traces stay plausible.
	id := uint16(nprand.FlowHash(uint64(dst), now))
	ip := packet.IPv4{
		ID:       id,
		TTL:      byte(replyTTL),
		Protocol: packet.ProtoICMP,
		Src:      dst,
		Dst:      pp.IP.Src,
	}
	return s.emitReply(&ip, &icmp)
}

// emitReply serializes outer IP + ICMP body into the session's scratch
// reply buffer and returns it. The result aliases s.outBuf: valid until
// the session's next HandleProbe.
func (s *Session) emitReply(ip *packet.IPv4, icmp *packet.ICMP) []byte {
	s.bodyBuf = icmp.SerializeTo(s.bodyBuf[:0])
	out := ip.SerializeTo(s.outBuf[:0], len(s.bodyBuf))
	out = append(out, s.bodyBuf...)
	s.outBuf = out
	atomic.AddUint64(&s.net.RepliesSent, 1)
	return out
}

// handleEcho answers a direct ICMP Echo probe.
func (s *Session) handleEcho(raw []byte, now uint64) []byte {
	n := s.net
	var outer packet.IPv4
	body, err := outer.DecodeFromBytes(raw)
	if err != nil {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	var echo packet.ICMP
	if err := echo.DecodeFromBytes(body); err != nil || echo.Type != packet.ICMPTypeEcho {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	ifc := n.ifaces[outer.Dst]
	if ifc == nil {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	r := ifc.Router
	if !r.RespondsToEcho {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	if !s.allowReply(r, now) {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	if n.LossProb > 0 && s.rng.Float64() < n.LossProb {
		atomic.AddUint64(&n.Dropped, 1)
		return nil
	}
	reply := packet.ICMP{Type: packet.ICMPTypeEchoReply, ID: echo.ID, Seq: echo.Seq, Payload: echo.Payload}
	ip := packet.IPv4{
		ID:       s.nextIPID(ifc, false, outer.ID, now),
		TTL:      r.InitialTTLEcho - 4, // nominal return distance
		Protocol: packet.ProtoICMP,
		Src:      outer.Dst,
		Dst:      outer.Src,
	}
	return s.emitReply(&ip, &reply)
}
