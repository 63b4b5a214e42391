package mda

import (
	"cmp"
	"slices"
	"sync"

	"mmlpt/internal/nprand"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// Config parametrizes a multipath trace.
type Config struct {
	// Stop is the stopping-point table n_k; nil selects Default95 sized
	// for wide hops.
	Stop []int
	// MaxTTL bounds the trace depth. Zero selects 32.
	MaxTTL int
	// Seed drives the random flow-identifier choice. Traces with equal
	// seeds over a deterministic network are identical.
	Seed uint64
	// Obs, when non-nil, accumulates alias-resolution observations.
	Obs *obs.Observations
	// Prior, when non-nil, supplies the expected topology from an earlier
	// trace of the same (src, dst) pair. The MDA-Lite then probes each
	// covered hop only to the confirmation budget and falls back to full
	// discovery from the enclosing divergence hop on any mismatch.
	Prior TracePrior
	// disableFlowReuse, BenchmarkAblationFlowReuse's seam, makes the
	// MDA-Lite mint fresh flows at every hop instead of reusing the
	// previous hop's, shifting work onto the edge-completion step.
	disableFlowReuse bool
}

// maxConsecutiveStars aborts a trace after this many all-silent hops.
const maxConsecutiveStars = 3

// TracePrior is the expected topology of one (src, dst) pair, extracted
// from a cross-trace atlas. Implementations must be read-only during the
// trace: the session consults the prior but never mutates it.
type TracePrior interface {
	// NumHops returns the number of hops the prior covers (the expected
	// hop count of the destination, exclusive).
	NumHops() int
	// HopAddrs returns the expected interface addresses at hop h in a
	// deterministic (sorted) order, or ok=false when the prior does not
	// cover hop h (e.g. the earlier trace saw only stars there).
	HopAddrs(h int) (addrs []packet.Addr, ok bool)
	// HasEdge reports whether the prior recorded a link from u (at some
	// hop h) to w (at hop h+1).
	HasEdge(u, w packet.Addr) bool
	// FlowHints returns flow identifiers previously observed to land on
	// addr at hop h, or nil when unknown. Hints only reorder probing;
	// correctness never depends on them.
	FlowHints(h int, addr packet.Addr) []uint16
}

// default95 is the table fill selects: computed once and shared, read-only,
// by every session that does not bring its own.
var default95 = Default95(128)

func (c *Config) fill() {
	if c.Stop == nil {
		c.Stop = default95
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = 32
	}
}

// Result is the outcome of a trace.
type Result struct {
	Graph      *topo.Graph
	ReachedDst bool
	// DstHop is the hop index of the destination vertex, or -1.
	DstHop int
	// Probes is the total number of probe packets this trace sent.
	Probes uint64
	// SwitchedToMDA is set by the MDA-Lite when a meshing or asymmetry
	// detection forced a switch to the full MDA.
	SwitchedToMDA bool
	// EdgeCompletionTruncated counts hop pairs where the MDA-Lite's
	// edge-completion loop hit its iteration cap while still making
	// progress, so some edges may have been left undiscovered.
	EdgeCompletionTruncated int
	// PriorHopsConfirmed counts hops settled by prior confirmation alone
	// (probed only to the confirmation budget; zero without Config.Prior).
	PriorHopsConfirmed int
	// PriorAbandoned is set when a prior-seeded trace hit a mismatch
	// (new vertex, missing vertex) and fell back to full discovery.
	PriorAbandoned bool
	// Obs carries the alias-resolution observations if requested.
	Obs *obs.Observations
}

// source is the sentinel vertex ID standing for the trace source: every
// flow passes through it.
const source topo.VertexID = -2

// Session holds the incremental state of a multipath trace: the graph
// discovered so far, which flows are known to reach which vertex, and the
// flow allocator. The MDA, MDA-Lite and single-flow drivers all run on
// it; NewSession hands one out so a caller can read HopLandings or the
// live Graph after (or while) RunMDA or RunLite runs. Such a session keeps
// its tables; the Trace entry points recycle theirs (see tables).
//
// The flow tables are dense and index-addressed; none of them is a hash
// map. Every flow the session lands somewhere — minted by freshFlow or
// handed in by a caller (prior flow hints) — is interned: it receives the
// next session-local index, in first-use order, and the per-hop tables are
// rows indexed by that local index. Per-vertex flow lists hold wire
// identifiers in arrival order, which is the order node control consumes
// them in, so the tables record exactly what the map-based ones did.
type Session struct {
	p   probe.Prober
	cfg Config
	g   *topo.Graph
	rng *nprand.Source

	*tables
	index   *flowIndex // wire → local index; nil until needed and after finish (see idx)
	nMinted int        // population count of minted

	// Per-round scratch, reused by every round of the session: the specs
	// handed to the prober, the vertices probeHopBatch returns (valid until
	// the next probeHopBatch), and the round discoverSuccessors assembles.
	specs  []probe.Spec
	landed []topo.VertexID
	round  []uint16

	dstHop   int
	baseSent uint64

	// priorConfirmedHops counts hops the MDA-Lite settled by prior
	// confirmation alone; priorAbandoned records a mismatch-triggered
	// fallback; edgeCompletionTruncs counts edge-completion iteration-cap
	// hits. The MDA-Lite driver maintains them and finish copies them into
	// the Result.
	priorConfirmedHops   int
	priorAbandoned       bool
	edgeCompletionTruncs int
}

// tables are a session's flow tables. Trace, TraceLite and
// TraceSingleFlow hand theirs back to tablesPool when they return, since
// nothing can reach their session afterwards, and the next session reuses
// their storage. A reused table carries nothing over: release truncates
// the tables to length 0, rows empties each row as it is revealed again,
// and the successor set's stale stamps all predate its epoch.
type tables struct {
	wire     []uint16          // local index → wire flow identifier
	minted   []uint64          // bitset over local indices: handed out by freshFlow
	flows    [][]uint16        // vertex → flows known to reach it, arrival order, no repeats
	flowSlab []uint16          // unused tail of the chunk new flow lists are carved from
	flowAt   [][]topo.VertexID // hop → local index → vertex; topo.None where unknown
	noReply  [][]uint16        // hop → flows that drew no reply there, probe order, repeats possible

	// succSeen[w] == succEpoch marks w as counted by the discoverSuccessors
	// call in progress; bumping the epoch empties the set in O(1).
	succSeen  []uint32
	succEpoch uint32
}

var tablesPool = sync.Pool{New: func() any { return new(tables) }}

// release hands the session's tables back to tablesPool; the session is
// unusable afterwards.
func (s *Session) release() {
	t := s.tables
	s.tables = nil
	t.wire, t.minted, t.flows, t.flowAt, t.noReply = t.wire[:0], t.minted[:0], t.flows[:0], t.flowAt[:0], t.noReply[:0]
	tablesPool.Put(t)
}

// rows extends tab until tab[i] exists. A row a previous session left in
// the table's capacity comes back empty, keeping its storage; a nil table
// starts at a capacity that fits a typical trace (hops, vertices).
func rows[T any](tab [][]T, i int) [][]T {
	if tab == nil {
		tab = make([][]T, 0, max(i+1, 32))
	}
	for len(tab) <= i {
		if n := len(tab); n < cap(tab) {
			tab = tab[:n+1]
			tab[n] = tab[n][:0]
		} else {
			tab = append(tab, nil)
		}
	}
	return tab
}

// flowIndex is the sparse half of a sparse set whose dense half is
// Session.wire: index[f] is meaningful only when wire[index[f]] == f. The
// array therefore needs neither initialisation nor clearing, is valid for
// every uint16 a caller can pass, and is recycled across sessions as is —
// a trace never allocates in proportion to the flow-identifier space.
type flowIndex [1 << 16]uint16

var flowIndexPool = sync.Pool{New: func() any { return new(flowIndex) }}

// NewSession prepares a trace session over p.
func NewSession(p probe.Prober, cfg Config) *Session {
	cfg.fill()
	return &Session{
		p:        p,
		cfg:      cfg,
		g:        topo.New(),
		tables:   tablesPool.Get().(*tables),
		rng:      nprand.New(cfg.Seed ^ 0x6d646131),
		dstHop:   -1,
		baseSent: probe.TotalSent(p),
	}
}

// probesSent returns the probes sent since the session began.
func (s *Session) probesSent() uint64 {
	return probe.TotalSent(s.p) - s.baseSent
}

// Graph returns the session's live graph: the topology discovered so
// far, which a driver keeps extending until it returns.
func (s *Session) Graph() *topo.Graph { return s.g }

// idx returns the wire → local index array, taking one from the pool on
// first use. finish gives the array back; a session used after finish
// (prior capture reads HopLandings, tests look flows up) takes a fresh
// one and rebuilds it from wire.
func (s *Session) idx() *flowIndex {
	if s.index == nil {
		s.index = flowIndexPool.Get().(*flowIndex)
		for i, f := range s.wire {
			s.index[f] = uint16(i)
		}
	}
	return s.index
}

// lookup returns flow f's local index, if f has been interned.
func (s *Session) lookup(f uint16) (int, bool) {
	i := int(s.idx()[f])
	return i, i < len(s.wire) && s.wire[i] == f
}

// intern returns flow f's local index, assigning the next one on first
// use.
func (s *Session) intern(f uint16) int {
	i, ok := s.lookup(f)
	if !ok {
		i = len(s.wire)
		if s.wire == nil {
			s.wire = make([]uint16, 0, 64)
		}
		s.wire = append(s.wire, f)
		s.index[f] = uint16(i)
		if i>>6 >= len(s.minted) {
			s.minted = append(s.minted, 0)
		}
	}
	return i
}

// vertexAt looks up (without probing) which vertex flow f reached at hop
// h, if known.
func (s *Session) vertexAt(h int, f uint16) (topo.VertexID, bool) {
	if h < 0 || h >= len(s.flowAt) {
		return topo.None, false
	}
	i, ok := s.lookup(f)
	if !ok || i >= len(s.flowAt[h]) {
		return topo.None, false
	}
	v := s.flowAt[h][i]
	return v, v != topo.None
}

// flowsOf returns the flows known to reach v, in the order they were first
// seen there (the source sentinel has no stored flows: mint fresh ones
// instead). The slice is the session's own; callers must not modify it.
func (s *Session) flowsOf(v topo.VertexID) []uint16 {
	if v < 0 || int(v) >= len(s.flows) {
		return nil
	}
	return s.flows[v]
}

// freshFlow mints a random flow identifier it has not minted before. ok is
// false once all packet.MaxFlowID+1 identifiers have been handed out.
func (s *Session) freshFlow() (uint16, bool) {
	if s.nMinted > packet.MaxFlowID {
		return 0, false
	}
	for {
		f := uint16(s.rng.Uint64() % uint64(packet.MaxFlowID+1))
		i := s.intern(f)
		if word, bit := &s.minted[i>>6], uint64(1)<<(i&63); *word&bit == 0 {
			*word |= bit
			s.nMinted++
			return f, true
		}
	}
}

// probeHop sends flow f with a TTL expiring at hop h and integrates the
// reply into the session state. It returns the vertex that answered
// (possibly the destination's vertex), or (None, false) on no reply.
// Every call sends a packet; use vertexAt to avoid redundant sends.
func (s *Session) probeHop(h int, f uint16) (topo.VertexID, bool) {
	reply := s.p.Probe(f, h+1)
	t, e := s.p.Sent()
	return s.integrate(h, f, reply, t+e)
}

// probeHopBatch sends every flow at hop h as one batch and integrates the
// replies in spec order, exactly as repeated probeHop calls would. The
// returned vertices are index-aligned with flows (topo.None where no
// reply arrived); the slice is session scratch, valid until the next
// probeHopBatch call. Observation sequence numbers are assigned
// monotonically within the batch (base count + position), since per-probe
// totals are not observable once a whole round is in flight.
func (s *Session) probeHopBatch(h int, flows []uint16) []topo.VertexID {
	if len(flows) == 0 {
		return nil
	}
	if cap(s.specs) < len(flows) {
		n := max(2*len(flows), 16)
		s.specs, s.landed = make([]probe.Spec, 0, n), make([]topo.VertexID, 0, n)
	}
	s.specs = s.specs[:0]
	for _, f := range flows {
		s.specs = append(s.specs, probe.Spec{FlowID: f, TTL: h + 1})
	}
	base := probe.TotalSent(s.p)
	replies := s.p.ProbeBatch(s.specs)
	s.landed = s.landed[:0]
	for i, f := range flows {
		// Every spec sends at least one packet, so base+i+1 never passes
		// the post-batch total and stays monotonic across batches.
		seq := base + uint64(i) + 1
		v, ok := s.integrate(h, f, replies[i], seq)
		if !ok {
			v = topo.None
		}
		s.landed = append(s.landed, v)
	}
	return s.landed
}

// integrate folds one probe reply (or lack of one, when reply is nil)
// into the session state. seq is the probe-counter value observations are
// recorded at.
func (s *Session) integrate(h int, f uint16, reply *packet.Reply, seq uint64) (topo.VertexID, bool) {
	if reply == nil {
		s.noReply = rows(s.noReply, h)
		s.noReply[h] = append(s.noReply[h], f)
		return topo.None, false
	}
	var v topo.VertexID
	if reply.IsPortUnreachable() && reply.From == s.p.Dst() {
		if s.dstHop < 0 || h < s.dstHop {
			s.dstHop = h
		}
		v = s.g.AddVertex(s.dstHop, reply.From)
		h = s.dstHop
	} else {
		v = s.g.AddVertex(h, reply.From)
	}
	s.land(h, f, v)
	if s.cfg.Obs != nil {
		s.cfg.Obs.RecordTrace(reply, f, h+1, seq)
	}
	return v, true
}

// land records that flow f reached v, a vertex of hop h: flowAt[h] now
// answers v for f, and f joins v's flow list unless it is there already.
// The row's previous entry decides that without a search in the common
// cases — a flow is in the list of a hop-h vertex exactly when the row has
// named that vertex for it at some point — so only a flow that moved
// between two vertices of one hop (per-packet balancing, a route change)
// pays for a scan.
func (s *Session) land(h int, f uint16, v topo.VertexID) {
	i := s.intern(f)
	s.flowAt = rows(s.flowAt, h)
	row := s.flowAt[h]
	if i >= len(row) {
		if i >= cap(row) {
			// Size the row for every flow interned so far and then some:
			// it is reallocated only when the flow table itself has grown.
			row = append(make([]topo.VertexID, 0, cap(s.wire)), row...)
		}
		n := len(row)
		row = row[:i+1]
		for j := n; j <= i; j++ {
			row[j] = topo.None
		}
		s.flowAt[h] = row
	}
	prev := row[i]
	row[i] = v
	s.flows = rows(s.flows, int(v))
	if prev == v || (prev != topo.None && slices.Contains(s.flows[v], f)) {
		return
	}
	if cap(s.flows[v]) == 0 {
		// Start the list in the slab, with room for the n_1 = 6 flows one
		// discoverSuccessors call needs of a single-successor vertex. The
		// capacity is capped, so a list that outgrows it moves to the heap
		// by append's own rules and never runs into its slab neighbour.
		if len(s.flowSlab) < flowListCap {
			s.flowSlab = make([]uint16, 32*flowListCap)
		}
		s.flows[v] = s.flowSlab[:0:flowListCap]
		s.flowSlab = s.flowSlab[flowListCap:]
	}
	s.flows[v] = append(s.flows[v], f)
}

// flowListCap is the initial capacity of a vertex's flow list.
const flowListCap = 8

// adoptStarFlows assigns every no-reply flow at hop h to star, a star
// vertex of hop h, so node control can operate through silent hops. The
// flows are adopted in ascending order: they land in the star's flow
// list, whose order later drives flow selection (flowThrough) and
// therefore which vertices the next hop discovers first.
func (s *Session) adoptStarFlows(h int, star topo.VertexID) {
	if h < 0 || h >= len(s.noReply) {
		return
	}
	slices.Sort(s.noReply[h])
	s.noReply[h] = slices.Compact(s.noReply[h])
	for _, f := range s.noReply[h] {
		s.land(h, f, star)
	}
}

// flowThrough returns the next flow through v for a discoverSuccessors
// call whose cursor into v's flow list is *cur, minting flows via node
// control once the list is used up. For the source sentinel a fresh flow
// is returned directly (every flow passes the source). The second return
// is false when no further flow can be obtained.
//
// The cursor invariant: the flows the call has used are exactly
// flowsOf(v)[:*cur]. The list is append-only and duplicate-free, a flow is
// used the moment it is returned from here, and node control stops at the
// first fresh flow that lands on v — which land has just appended, so it
// sits at index *cur. "The first flow of v not used yet" is therefore
// always the one under the cursor.
func (s *Session) flowThrough(v topo.VertexID, cur *int) (uint16, bool) {
	if v == source {
		return s.freshFlow()
	}
	if fs := s.flowsOf(v); *cur < len(fs) {
		*cur++
		return fs[*cur-1], true
	}
	// Node control: probe v's own hop with fresh flows until one lands on
	// v. The attempt budget is a generous multiple of the hop width so a
	// pathologically unlucky coupon-collector run terminates.
	h := s.g.V(v).Hop
	budget := 8*max(s.g.Width(h), 1) + 64
	for a := 0; a < budget; a++ {
		f, ok := s.freshFlow()
		if !ok {
			return 0, false
		}
		if w, _ := s.probeHop(h, f); w == v {
			*cur = len(s.flowsOf(v))
			return f, true
		}
	}
	return 0, false
}

// ensureFlows tops up v's known flows to at least need distinct flow
// identifiers, minting new ones through node control (probing v's own hop
// with fresh flows until enough land on v). It reports whether the target
// was met. This is the "limited application of node control" the
// MDA-Lite's meshing test requires (Sec 2.3.2).
func (s *Session) ensureFlows(v topo.VertexID, need int) bool {
	if v == source {
		return true
	}
	h := s.g.V(v).Hop
	budget := max(8*max(s.g.Width(h), 1)*need, 64)
	for a := 0; len(s.flowsOf(v)) < need && a < budget; a++ {
		f, ok := s.freshFlow()
		if !ok {
			return false
		}
		s.probeHop(h, f)
	}
	return len(s.flowsOf(v)) >= need
}

// discoverSuccessors runs the MDA's per-vertex discovery: find the
// successors of v (at hop h-1; source discovers hop 0) by probing hop h
// with flows through v, under the stopping rule. It returns the number of
// distinct successors found.
//
// Probing proceeds in rounds: the n_k stopping-point schedule defines how
// many probes the current successor count warrants, and each round issues
// exactly that shortfall as one ProbeBatch. Flow selection happens during
// round assembly — flows of v are independent of the round's own hop-h
// replies, so assembling before sending chooses the same flows, in the
// same order, as the probe-at-a-time loop did, and the stopping rule is
// re-evaluated between rounds; because n_k only grows as successors are
// found, the rounds stop at exactly the probe count the serial loop
// stopped at.
func (s *Session) discoverSuccessors(v topo.VertexID, h int) int {
	s.succEpoch++ // empties the successor set
	if s.succEpoch == 0 {
		clear(s.succSeen) // the epoch wrapped: old stamps could match again
		s.succEpoch = 1
	}
	succ, sent, cur := 0, 0, 0

	note := func(w topo.VertexID) {
		for int(w) >= len(s.succSeen) {
			s.succSeen = append(s.succSeen, 0)
		}
		if s.succSeen[w] != s.succEpoch {
			s.succSeen[w] = s.succEpoch
			succ++
		}
		if v != source {
			s.g.AddEdge(v, w)
		}
	}

	for {
		target := stopPoint(s.cfg.Stop, max(succ, 1))
		if sent >= target {
			break
		}
		// Assemble one round. Node control inside flowThrough may probe
		// v's own hop; knowledge a flow already has at hop h is reused
		// without spending a packet, and can raise the target mid-round.
		s.round = s.round[:0]
		exhausted := false
		for sent+len(s.round) < target {
			f, ok := s.flowThrough(v, &cur)
			if !ok {
				exhausted = true
				break
			}
			if w, known := s.vertexAt(h, f); known {
				note(w)
				target = stopPoint(s.cfg.Stop, max(succ, 1))
				continue
			}
			s.round = append(s.round, f)
		}
		for _, w := range s.probeHopBatch(h, s.round) {
			if w != topo.None {
				note(w)
			}
		}
		sent += len(s.round)
		if exhausted {
			break
		}
	}
	if succ == 0 && sent > 0 {
		// Every probe went unanswered: v's successor is a star.
		star := s.g.AddVertex(h, topo.StarAddr)
		if v != source {
			s.g.AddEdge(v, star)
		}
		s.adoptStarFlows(h, star)
		succ = 1
	}
	return succ
}

// Trace runs the full MDA and returns the discovered topology.
func Trace(p probe.Prober, cfg Config) *Result {
	s := NewSession(p, cfg)
	defer s.release()
	return s.RunMDA()
}

// RunMDA runs the full MDA on a fresh session and returns its result.
func (s *Session) RunMDA() *Result {
	s.runMDA(0)
	return s.finish(false)
}

// runMDA executes the MDA from hop startHop onward. When startHop is 0 the
// source's successors are discovered first; otherwise hop startHop-1's
// vertices must already exist in the session graph: the MDA-Lite's
// switch-over resumes here on the graph and flows it has gathered.
func (s *Session) runMDA(startHop int) {
	if startHop == 0 {
		s.discoverSuccessors(source, 0)
		startHop = 1
	}
	starRun := 0
	for h := startHop; h <= s.cfg.MaxTTL; h++ {
		if s.hopDone(h - 1) {
			return
		}
		// Worklist over hop h-1: node control during this hop's probing
		// may reveal new hop h-1 vertices that then need processing too.
		// The hop's vertex list only grows at its end, so walking it by
		// index (re-reading it every step) visits them all, in order.
		for i := 0; i < len(s.g.Hop(h-1)); i++ {
			if v := s.g.Hop(h - 1)[i]; !s.isDst(v) {
				s.discoverSuccessors(v, h)
			}
		}
		if s.hopAllStars(h) {
			starRun++
			if starRun >= maxConsecutiveStars {
				return
			}
		} else {
			starRun = 0
		}
	}
}

// hopDone reports whether hop h consists solely of the destination (or is
// beyond it), meaning the trace is complete.
func (s *Session) hopDone(h int) bool {
	if s.dstHop >= 0 && h >= s.dstHop {
		return true
	}
	vs := s.g.Hop(h)
	if len(vs) == 0 {
		return h > 0 // nothing to extend
	}
	for _, v := range vs {
		if !s.isDst(v) {
			return false
		}
	}
	return true
}

func (s *Session) hopAllStars(h int) bool {
	vs := s.g.Hop(h)
	if len(vs) == 0 {
		return false
	}
	for _, v := range vs {
		if s.g.V(v).Addr != topo.StarAddr {
			return false
		}
	}
	return true
}

func (s *Session) isDst(v topo.VertexID) bool {
	return s.g.V(v).Addr == s.p.Dst()
}

// finish assembles the Result and returns the session's flow index to
// the pool. The session stays usable (see idx).
func (s *Session) finish(switched bool) *Result {
	if s.index != nil {
		flowIndexPool.Put(s.index)
		s.index = nil
	}
	return &Result{
		Graph:                   s.g,
		ReachedDst:              s.dstHop >= 0,
		DstHop:                  s.dstHop,
		Probes:                  s.probesSent(),
		SwitchedToMDA:           switched,
		EdgeCompletionTruncated: s.edgeCompletionTruncs,
		PriorHopsConfirmed:      s.priorConfirmedHops,
		PriorAbandoned:          s.priorAbandoned,
		Obs:                     s.cfg.Obs,
	}
}

// FlowLanding pairs a flow identifier with the interface address it was
// observed to reach at some hop.
type FlowLanding struct {
	Flow uint16
	Addr packet.Addr
}

// HopLandings returns the responsive flow→address observations at hop h
// in ascending flow order. Prior extraction uses it to capture flow
// hints for the next re-trace of the same pair.
func (s *Session) HopLandings(h int) []FlowLanding {
	if h < 0 || h >= len(s.flowAt) {
		return nil
	}
	out := make([]FlowLanding, 0, len(s.flowAt[h]))
	for i, v := range s.flowAt[h] {
		if v == topo.None {
			continue
		}
		if a := s.g.V(v).Addr; a != topo.StarAddr {
			out = append(out, FlowLanding{Flow: s.wire[i], Addr: a})
		}
	}
	slices.SortFunc(out, func(a, b FlowLanding) int { return cmp.Compare(a.Flow, b.Flow) })
	return out
}

// TraceSingleFlow traces with one flow identifier only, the way Paris
// Traceroute runs on RIPE Atlas (Sec 6.2): one probe per TTL (plus the
// prober's retries), no multipath discovery.
func TraceSingleFlow(p probe.Prober, cfg Config) *Result {
	s := NewSession(p, cfg)
	defer s.release()
	f, _ := s.freshFlow()
	starRun := 0
	for h := 0; h <= s.cfg.MaxTTL; h++ {
		v, ok := s.probeHop(h, f)
		if !ok {
			star := s.g.AddVertex(h, topo.StarAddr)
			if h > 0 && len(s.g.Hop(h-1)) > 0 {
				s.g.AddEdge(s.g.Hop(h - 1)[0], star)
			}
			s.adoptStarFlows(h, star)
			starRun++
			if starRun >= maxConsecutiveStars {
				break
			}
			continue
		}
		starRun = 0
		if h > 0 && len(s.g.Hop(h-1)) > 0 {
			s.g.AddEdge(s.g.Hop(h - 1)[0], v)
		}
		if s.isDst(v) {
			break
		}
	}
	return s.finish(false)
}
