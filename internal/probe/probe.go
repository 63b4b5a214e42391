// Package probe defines the boundary between the multipath detection
// algorithms and the network: a Prober sends traceroute probes (flow
// identifier + TTL) or direct echo probes and returns the parsed replies.
//
// The contract is batched: ProbeBatch and EchoBatch accept one round of
// probe specifications and return the replies index-aligned with the
// specs, which lets a transport keep a whole round in flight at once (a
// live prober overlaps sends and receives; the synchronous simulator
// prober answers each probe in order). The single-probe methods Probe and
// Echo remain as thin adapters over the same core, so algorithm code that
// probes one packet at a time keeps working unchanged.
//
// The algorithms never see raw sockets or the simulator; they are written
// against this interface, so the same MDA / MDA-Lite / alias-resolution
// code runs over Fakeroute (validated, deterministic) and over a live
// raw-socket transport where one is available.
//
// A Recorder wraps any Prober and reports every probe with its cumulative
// sent count (the Fig 3 discovery curves); it splits batches into single
// probes to do so.
package probe

import (
	"sync"
	"sync/atomic"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

// Spec describes one traceroute probe of a batch: the Paris flow
// identifier to hold constant and the TTL at which the probe should
// expire.
type Spec struct {
	FlowID uint16
	TTL    int
}

// EchoSpec describes one direct (ping-style) probe of a batch.
type EchoSpec struct {
	Addr packet.Addr
	Seq  uint16
}

// Prober sends probes toward one destination.
type Prober interface {
	// Probe sends a Paris traceroute probe with the given flow identifier
	// and TTL toward the prober's destination. It returns the parsed
	// reply, or nil if no reply arrived (loss, rate limiting, or a
	// non-responsive hop).
	Probe(flowID uint16, ttl int) *packet.Reply

	// ProbeBatch sends one round of traceroute probes and returns the
	// replies index-aligned with specs (nil where no reply arrived).
	// Implementations may keep the whole round in flight concurrently;
	// retries, if any, apply per probe as they do for Probe. specs belongs
	// to the caller, who may reuse it once the call returns:
	// implementations must not retain it.
	ProbeBatch(specs []Spec) []*packet.Reply

	// Echo sends a direct (ping-style) probe to addr, returning the parsed
	// reply or nil.
	Echo(addr packet.Addr, seq uint16) *packet.Reply

	// EchoBatch sends one round of direct probes and returns the replies
	// index-aligned with specs (nil where no reply arrived).
	EchoBatch(specs []EchoSpec) []*packet.Reply

	// Sent returns the number of traceroute probes and echo probes sent so
	// far. The paper's packet counts are Sent totals.
	Sent() (trace, echo uint64)

	// Dst returns the destination address being traced.
	Dst() packet.Addr
}

// SimProber drives a fakeroute.Network. It is synchronous: a probe's reply
// (if any) is returned immediately, which matches the simulator's
// deterministic semantics and keeps algorithm code free of timeouts; a
// batch is therefore answered probe by probe, in spec order.
//
// A SimProber is safe for concurrent use: the sent counters are atomic,
// and one mutex serializes everything else — a round trip (allocate a
// probe identity, serialize, HandleProbe, parse the reply) is a single
// critical section. All probes of one SimProber flow through one
// fakeroute session, so direct and indirect probes of a trace sample the
// same simulated counters.
//
// The round trip is allocation-free in steady state: probes serialize
// into a reusable buffer, the session crafts its reply into session
// scratch, and parsed replies come from a chunked arena (see replyArena)
// rather than individual allocations; a batch's reply slice is carved
// from a chunk the same way. Returned replies and reply slices are
// self-contained and may be retained indefinitely, as before.
type SimProber struct {
	Net       *fakeroute.Network
	Src, Dst_ packet.Addr

	// Retries is how many times Probe re-sends on no-reply before giving
	// up (models the usual 2-3 attempts per hop of traceroute tools).
	// Each attempt counts as a sent packet. Zero means a single attempt.
	Retries int

	traceSent uint64 // atomic
	echoSent  uint64 // atomic

	// mu guards everything below. Holding it across the whole exchange is
	// what lets the scratch buffer and arenas be reused without allocating,
	// and it costs no parallelism: the simulator session serializes probe
	// handling per trace anyway, and concurrent traces of distinct pairs
	// use distinct probers.
	mu     sync.Mutex
	sess   *fakeroute.Session
	serial uint16
	pktBuf []byte
	arena  replyArena
	slots  []*packet.Reply // unused tail of the chunk batch reply slices are carved from
}

// replyArena hands out *packet.Reply values from chunked slabs: one heap
// allocation per replyArenaChunk replies instead of one per reply.
// Handed-out replies are never recycled — a chunk stays reachable as long
// as any of its replies is — so callers may retain them indefinitely,
// exactly as with individually allocated replies.
type replyArena struct {
	chunk []packet.Reply
	used  int
}

// replyArenaChunk is the largest slab: large enough to amortize allocation
// to ~0 allocs/probe. Slabs start at replyArenaFirst and double up to it,
// so the short trace of a plain path — most pairs of a survey — does not
// pay for 256 replies it never parses.
const (
	replyArenaChunk = 256
	replyArenaFirst = 16
)

func (a *replyArena) next() *packet.Reply {
	if a.used == len(a.chunk) {
		a.chunk = make([]packet.Reply, min(max(2*len(a.chunk), replyArenaFirst), replyArenaChunk))
		a.used = 0
	}
	r := &a.chunk[a.used]
	a.used++
	return r
}

// NewSimProber returns a prober tracing src→dst over n.
func NewSimProber(n *fakeroute.Network, src, dst packet.Addr) *SimProber {
	return &SimProber{Net: n, Src: src, Dst_: dst, Retries: 2}
}

// Dst implements Prober.
func (p *SimProber) Dst() packet.Addr { return p.Dst_ }

// Sent implements Prober.
func (p *SimProber) Sent() (uint64, uint64) {
	return atomic.LoadUint64(&p.traceSent), atomic.LoadUint64(&p.echoSent)
}

// sessionLocked returns the per-trace fakeroute session, creating it on
// first use so zero-constructed SimProbers keep working.
func (p *SimProber) sessionLocked() *fakeroute.Session {
	if p.sess == nil {
		p.sess = p.Net.SessionFor(p.Src, p.Dst_)
	}
	return p.sess
}

// serialLocked advances to the next non-zero probe identity. A
// synchronous round trip allocates its identity and retires it inside
// one critical section, so no other identity is live when it runs and a
// wrap of the 16-bit counter cannot hand out one twice.
func (p *SimProber) serialLocked() uint16 {
	p.serial++
	if p.serial == 0 {
		p.serial = 1
	}
	return p.serial
}

// ProbeBatch implements Prober. The simulator transport is synchronous,
// so the batch is answered in spec order; the batched contract still
// holds (replies index-aligned, per-probe retries).
func (p *SimProber) ProbeBatch(specs []Spec) []*packet.Reply {
	replies := p.replySlots(len(specs))
	for i, sp := range specs {
		replies[i] = p.Probe(sp.FlowID, sp.TTL)
	}
	return replies
}

// replySlotChunk is the slab batch reply slices are carved from. Rounds
// average two to three probes, so one chunk serves a few dozen batches.
const replySlotChunk = 64

// replySlots returns a zeroed reply slice of length n that the caller may
// keep: slices are carved off a chunk and never handed out twice.
func (p *SimProber) replySlots(n int) []*packet.Reply {
	if n > replySlotChunk/4 {
		return make([]*packet.Reply, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slots) < n {
		p.slots = make([]*packet.Reply, replySlotChunk)
	}
	out := p.slots[:n:n]
	p.slots = p.slots[n:]
	return out
}

// exchangeLocked completes one wire round trip whose probe bytes are
// already serialized into pktBuf: it hands them to the session and
// parses the session-owned reply bytes into an arena reply before the
// next exchange can overwrite either buffer. Callers hold mu across
// serialize-into-pktBuf and this call (the packet types are concrete at
// each call site so serialization stays allocation-free; an interface
// here would heap-escape the packet struct). Returns nil on drop or
// unparseable reply.
func (p *SimProber) exchangeLocked() *packet.Reply {
	raw := p.sessionLocked().HandleProbe(p.pktBuf)
	if raw == nil {
		return nil
	}
	r := p.arena.next()
	if packet.ParseReplyInto(r, raw) != nil {
		return nil
	}
	return r
}

// Probe implements Prober.
func (p *SimProber) Probe(flowID uint16, ttl int) *packet.Reply {
	if flowID > packet.MaxFlowID {
		panic("probe: flow ID out of range")
	}
	attempts := p.Retries + 1
	for a := 0; a < attempts; a++ {
		atomic.AddUint64(&p.traceSent, 1)
		p.mu.Lock()
		pr := packet.Probe{
			Src: p.Src, Dst: p.Dst_,
			FlowID: flowID, TTL: byte(ttl), Checksum: p.serialLocked(),
		}
		p.pktBuf = pr.AppendTo(p.pktBuf[:0])
		reply := p.exchangeLocked()
		p.mu.Unlock()
		if reply != nil {
			return reply
		}
	}
	return nil
}

// EchoBatch implements Prober.
func (p *SimProber) EchoBatch(specs []EchoSpec) []*packet.Reply {
	replies := make([]*packet.Reply, len(specs))
	for i, sp := range specs {
		replies[i] = p.Echo(sp.Addr, sp.Seq)
	}
	return replies
}

// Echo implements Prober.
func (p *SimProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	attempts := p.Retries + 1
	for a := 0; a < attempts; a++ {
		// The probe's IP ID is set to seq so callers can detect routers
		// that copy the probe ID into the reply (a MIDAR "unable" cause).
		ep := packet.EchoProbe{
			Src: p.Src, Dst: addr,
			ID: 0x4d4c, Seq: seq, IPID: seq,
		}
		atomic.AddUint64(&p.echoSent, 1)
		p.mu.Lock()
		p.pktBuf = ep.AppendTo(p.pktBuf[:0])
		reply := p.exchangeLocked()
		p.mu.Unlock()
		if reply != nil {
			return reply
		}
	}
	return nil
}

// Recorder wraps a Prober and notifies a callback as probes complete,
// with cumulative sent counts: the hook the discovery-progress curves
// (Fig 3) are built on. Callbacks are serialized, so a Recorder may be
// shared by concurrent probers. Batches are forwarded probe by probe so
// the callback sees every probe with its own cumulative count —
// per-probe granularity at the cost of serializing the batch.
type Recorder struct {
	Prober
	// OnProbe is called after each traceroute or echo probe completes,
	// with the total packets sent so far and the reply (nil if none).
	OnProbe func(totalSent uint64, reply *packet.Reply)

	mu sync.Mutex
}

// Probe implements Prober.
func (r *Recorder) Probe(flowID uint16, ttl int) *packet.Reply {
	reply := r.Prober.Probe(flowID, ttl)
	r.record(reply)
	return reply
}

// ProbeBatch implements Prober, probe by probe.
func (r *Recorder) ProbeBatch(specs []Spec) []*packet.Reply {
	replies := make([]*packet.Reply, len(specs))
	for i, sp := range specs {
		replies[i] = r.Probe(sp.FlowID, sp.TTL)
	}
	return replies
}

// Echo implements Prober.
func (r *Recorder) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	reply := r.Prober.Echo(addr, seq)
	r.record(reply)
	return reply
}

// EchoBatch implements Prober, probe by probe.
func (r *Recorder) EchoBatch(specs []EchoSpec) []*packet.Reply {
	replies := make([]*packet.Reply, len(specs))
	for i, sp := range specs {
		replies[i] = r.Echo(sp.Addr, sp.Seq)
	}
	return replies
}

func (r *Recorder) record(reply *packet.Reply) {
	if r.OnProbe == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, e := r.Prober.Sent()
	r.OnProbe(t+e, reply)
}

// TotalSent sums trace and echo probes for a Prober.
func TotalSent(p Prober) uint64 {
	t, e := p.Sent()
	return t + e
}
