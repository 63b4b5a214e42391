package fakeroute

import (
	"fmt"
	"sync"

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
// a vertex whose address is the destination. A Path is configuration
// only, immutable once probing begins: the dense forwarding view probes
// walk is compiled from it by the pair's Session (see compiled.go) and
// ends with that session.
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
// begins. Probing itself — Session.HandleProbe, on the Session that
// SessionFor returns for the probe's pair — is safe for concurrent use: all per-probe mutable
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

	sessMu   sync.RWMutex
	sessions map[PathKey]*Session
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
	// path is the session's own ground-truth path, resolved on its first
	// probe; a trace probe of any other pair gets no reply.
	path *Path
	// compiledMain and compiledAlt are path's dense forwarding views
	// over Graph and Alt, compiled on first use (see compiled.go).
	compiledMain, compiledAlt *compiledPath

	// Reusable scratch for the zero-allocation probe hot path: the
	// parsed probe, the quoted-datagram copy, the MPLS extension, and
	// the outgoing reply. All are used only under mu; outBuf backs the
	// slice HandleProbe returns.
	pp       packet.ParsedProbe
	quoteBuf []byte
	extBuf   []byte
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
// first use. Repeated calls return the same session until EndSession
// drops it, so repeated traces of one pair see counters and clocks carry
// over, as they would against a real network; the figure experiments,
// the ground-truth re-traces and the library API rely on that. A survey
// ends each pair's session with its trace instead.
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

// EndSession drops the session of (src, dst): its counters, clock,
// randomness, scratch and compiled forwarding views. The pair's next
// probe starts exactly as on a freshly built network. A Session value
// obtained before the call keeps working but is no longer the pair's.
func (n *Network) EndSession(src, dst packet.Addr) {
	n.sessMu.Lock()
	delete(n.sessions, PathKey{Src: src, Dst: dst})
	n.sessMu.Unlock()
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
// star hop, or no reply per the topology). A trace probe answers only
// when its addresses are the session's pair; a direct echo probe answers
// from whichever interface it targets, on this session's counters, so
// both probe families of one trace sample the same views (the Monotonic
// Bounds Test depends on that). A runt or unparseable packet gets nil.
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

	// Echo (direct) probes are dispatched to the target interface.
	var outerProto byte
	if len(raw) >= 10 {
		outerProto = raw[9]
	}
	if outerProto == packet.ProtoICMP {
		return s.handleEcho(raw, now)
	}

	if err := packet.ParseProbeInto(&s.pp, raw); err != nil {
		return nil
	}
	pp := &s.pp
	p := s.pathFor(PathKey{Src: pp.IP.Src, Dst: pp.IP.Dst})
	if p == nil {
		return nil
	}
	cp := s.compiledFor(p, p.activeGraph(now))
	flowKey := pp.FlowKey()

	// The probe is forwarded until its TTL expires or it reaches the
	// destination host. hop h is reached after h+1 TTL decrements.
	// Randomness is drawn only where a per-packet balancer dispatches.
	cur, hop := cp.entry, 0
	for ttl := int(pp.IP.TTL); ttl > 1 && hop < cp.dstHop; ttl-- {
		next := s.nextVertex(cp, cur, pp, flowKey)
		if next == topo.None {
			break // dead end: silent drop (routing hole)
		}
		cur = next
		hop++
	}
	atDst := hop == cp.dstHop
	if cp.addr[cur] == topo.StarAddr {
		return nil // star: the hop never answers
	}
	if n.LossProb > 0 && s.rng.Float64() < n.LossProb {
		return nil
	}
	if atDst {
		return s.craftPortUnreachable(pp, cp.addr[cur], hop, now)
	}
	ifc := cp.iface[cur]
	if ifc == nil || !s.allowReply(ifc.Router, now) {
		return nil
	}
	return s.craftTimeExceeded(pp, cp, cur, hop, raw, now)
}

// craftTimeExceeded builds the ICMP Time Exceeded reply from vertex v of
// cp at forward distance hop (0-based), into the session's scratch
// buffers.
func (s *Session) craftTimeExceeded(pp *packet.ParsedProbe, cp *compiledPath, v topo.VertexID, hop int, probeRaw []byte, now uint64) []byte {
	ifc := cp.iface[v]
	r := ifc.Router
	// The router quotes the probe datagram as received: the full IP
	// header plus payload (our probes are small, so the quote is whole).
	// probeRaw is referenced directly — ICMP.SerializeTo copies the
	// payload into the reply buffer, and the caller's probe bytes stay
	// untouched for the whole call.
	icmp := packet.ICMP{
		Type:    packet.ICMPTypeTimeExceeded,
		Code:    packet.ICMPCodeTTLExceeded,
		Payload: probeRaw,
	}
	if label := ifc.effectiveLabel(now); label != 0 {
		s.extBuf = packet.AppendMPLSExtension(s.extBuf[:0],
			packet.MPLSLabelStackEntry{Label: label, S: true, TTL: 1})
		icmp.Extensions = s.extBuf
	}
	replyTTL := int(r.InitialTTLExceeded) - (hop + 1)
	if replyTTL < 1 {
		replyTTL = 1
	}
	ip := packet.IPv4{
		ID:       s.indirectIPID(cp, v, now),
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
// reply buffer and returns it: the ICMP message is appended behind a
// reserved IPv4 header, which is then written in place, so each reply
// byte is written once. The result aliases s.outBuf: valid until the
// session's next HandleProbe.
func (s *Session) emitReply(ip *packet.IPv4, icmp *packet.ICMP) []byte {
	out := append(s.outBuf[:0], make([]byte, packet.IPv4HeaderLen)...)
	out = icmp.SerializeTo(out)
	ip.SerializeTo(out[:0], len(out)-packet.IPv4HeaderLen)
	s.outBuf = out
	return out
}

// pathFor returns the session's ground-truth path, resolved once instead
// of on every probe, when key is the session's own pair, and nil for any
// other pair.
func (s *Session) pathFor(key PathKey) *Path {
	if key != s.key {
		return nil
	}
	if s.path == nil {
		s.path = s.net.paths[key]
	}
	return s.path
}

// handleEcho answers a direct ICMP Echo probe.
func (s *Session) handleEcho(raw []byte, now uint64) []byte {
	n := s.net
	var outer packet.IPv4
	body, err := outer.DecodeFromBytes(raw)
	if err != nil {
		return nil
	}
	var echo packet.ICMP
	if err := echo.DecodeFromBytes(body); err != nil || echo.Type != packet.ICMPTypeEcho {
		return nil
	}
	ifc := n.ifaces[outer.Dst]
	if ifc == nil {
		return nil
	}
	r := ifc.Router
	if !r.RespondsToEcho || !s.allowReply(r, now) {
		return nil
	}
	if n.LossProb > 0 && s.rng.Float64() < n.LossProb {
		return nil
	}
	reply := packet.ICMP{Type: packet.ICMPTypeEchoReply, ID: echo.ID, Seq: echo.Seq, Payload: echo.Payload}
	ip := packet.IPv4{
		ID:       s.echoIPID(ifc, outer.ID, now),
		TTL:      r.InitialTTLEcho - 4, // nominal return distance
		Protocol: packet.ProtoICMP,
		Src:      outer.Dst,
		Dst:      outer.Src,
	}
	return s.emitReply(&ip, &reply)
}
