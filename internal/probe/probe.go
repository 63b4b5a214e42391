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
// Replies are borrowed, not owned: a returned reply, and the slice a
// batch returns, are valid until the next call on the same prober, which
// may reuse their storage. A caller that keeps a reply longer copies it.
// One goroutine drives a prober at a time; Sent alone may be read
// concurrently.
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

// Prober sends probes toward one destination. A returned reply, and the
// slice a batch returns, are valid until the next call on the prober (see
// the package doc); one goroutine drives a prober at a time.
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
// batch is therefore answered probe by probe, in spec order. All probes of
// one SimProber flow through one fakeroute session, so direct and
// indirect probes of a trace sample the same simulated counters.
//
// The round trip is allocation-free in steady state: probes serialize
// into a reusable buffer, the session crafts its reply into session
// scratch, and replies are parsed into storage the prober owns and reuses
// on every call, under the Prober contract (valid until the next call).
// One goroutine drives a SimProber at a time; only Sent may be read
// concurrently.
type SimProber struct {
	Net       *fakeroute.Network
	Src, Dst_ packet.Addr

	// Retries is how many times Probe re-sends on no-reply before giving
	// up (models the usual 2-3 attempts per hop of traceroute tools).
	// Each attempt counts as a sent packet. Zero means a single attempt.
	Retries int

	traceSent uint64 // atomic
	echoSent  uint64 // atomic

	sess    *fakeroute.Session
	serial  uint16
	pktBuf  []byte
	replies []packet.Reply  // reply storage: slot i holds a batch's reply i
	out     []*packet.Reply // the slice ProbeBatch and EchoBatch return
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

// slots returns the reply slice for an n-probe call, grown to fit and
// reused by every later call.
func (p *SimProber) slots(n int) []*packet.Reply {
	if len(p.replies) < n {
		p.replies = make([]packet.Reply, max(n, 16))
		p.out = make([]*packet.Reply, len(p.replies))
	}
	return p.out[:n]
}

// exchange completes one wire round trip whose probe bytes are already
// serialized into pktBuf: it hands them to the session (created on first
// use, so zero-constructed SimProbers keep working) and parses the
// session-owned reply bytes into r. Returns nil on drop or unparseable
// reply. Callers serialize into pktBuf themselves, so each packet type
// stays concrete at its call site and serialization allocation-free (an
// interface here would heap-escape the packet struct).
func (p *SimProber) exchange(r *packet.Reply) *packet.Reply {
	if p.sess == nil {
		p.sess = p.Net.SessionFor(p.Src, p.Dst_)
	}
	raw := p.sess.HandleProbe(p.pktBuf)
	if raw == nil || packet.ParseReplyInto(r, raw) != nil {
		return nil
	}
	return r
}

// nextSerial advances to the next non-zero probe identity. A synchronous
// round trip retires its identity before the next one is allocated, so no
// other identity is live and a wrap of the 16-bit counter cannot hand out
// one twice.
func (p *SimProber) nextSerial() uint16 {
	p.serial++
	if p.serial == 0 {
		p.serial = 1
	}
	return p.serial
}

// Probe implements Prober.
func (p *SimProber) Probe(flowID uint16, ttl int) *packet.Reply {
	p.slots(1)
	return p.probeInto(&p.replies[0], flowID, ttl)
}

// ProbeBatch implements Prober. The simulator transport is synchronous,
// so the batch is answered in spec order; the batched contract still
// holds (replies index-aligned, per-probe retries).
func (p *SimProber) ProbeBatch(specs []Spec) []*packet.Reply {
	out := p.slots(len(specs))
	for i, sp := range specs {
		out[i] = p.probeInto(&p.replies[i], sp.FlowID, sp.TTL)
	}
	return out
}

// probeInto sends one traceroute probe, with retries, parsing its reply
// into r.
func (p *SimProber) probeInto(r *packet.Reply, flowID uint16, ttl int) *packet.Reply {
	if flowID > packet.MaxFlowID {
		panic("probe: flow ID out of range")
	}
	for a := 0; a <= p.Retries; a++ {
		atomic.AddUint64(&p.traceSent, 1)
		pr := packet.Probe{
			Src: p.Src, Dst: p.Dst_,
			FlowID: flowID, TTL: byte(ttl), Checksum: p.nextSerial(),
		}
		p.pktBuf = pr.AppendTo(p.pktBuf[:0])
		if reply := p.exchange(r); reply != nil {
			return reply
		}
	}
	return nil
}

// Echo implements Prober.
func (p *SimProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	p.slots(1)
	return p.echoInto(&p.replies[0], addr, seq)
}

// EchoBatch implements Prober.
func (p *SimProber) EchoBatch(specs []EchoSpec) []*packet.Reply {
	out := p.slots(len(specs))
	for i, sp := range specs {
		out[i] = p.echoInto(&p.replies[i], sp.Addr, sp.Seq)
	}
	return out
}

// echoInto sends one direct probe, with retries, parsing its reply into r.
func (p *SimProber) echoInto(r *packet.Reply, addr packet.Addr, seq uint16) *packet.Reply {
	for a := 0; a <= p.Retries; a++ {
		// The probe's IP ID is set to seq so callers can detect routers
		// that copy the probe ID into the reply (a MIDAR "unable" cause).
		ep := packet.EchoProbe{
			Src: p.Src, Dst: addr,
			ID: 0x4d4c, Seq: seq, IPID: seq,
		}
		atomic.AddUint64(&p.echoSent, 1)
		p.pktBuf = ep.AppendTo(p.pktBuf[:0])
		if reply := p.exchange(r); reply != nil {
			return reply
		}
	}
	return nil
}

// Recorder wraps a Prober and notifies a callback as probes complete,
// with cumulative sent counts: the hook the discovery-progress curves
// (Fig 3) are built on. Batches are forwarded probe by probe so the
// callback sees every probe with its own cumulative count — per-probe
// granularity at the cost of serializing the batch. A Recorder may be
// shared by concurrent callers: it holds its mutex across each inner call
// and its callback, and hands out its own copy of every reply, so its
// replies stay valid after later probes.
type Recorder struct {
	Prober
	// OnProbe is called after each traceroute or echo probe completes,
	// with the total packets sent so far and the reply (nil if none).
	OnProbe func(totalSent uint64, reply *packet.Reply)

	mu sync.Mutex
}

// Probe implements Prober.
func (r *Recorder) Probe(flowID uint16, ttl int) *packet.Reply {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.record(r.Prober.Probe(flowID, ttl))
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
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.record(r.Prober.Echo(addr, seq))
}

// EchoBatch implements Prober, probe by probe.
func (r *Recorder) EchoBatch(specs []EchoSpec) []*packet.Reply {
	replies := make([]*packet.Reply, len(specs))
	for i, sp := range specs {
		replies[i] = r.Echo(sp.Addr, sp.Seq)
	}
	return replies
}

// record copies reply out of the inner prober's storage, which its next
// call reuses, and reports the copy. Callers hold mu.
func (r *Recorder) record(reply *packet.Reply) *packet.Reply {
	if reply != nil {
		c := *reply
		reply = &c
	}
	if r.OnProbe != nil {
		t, e := r.Prober.Sent()
		r.OnProbe(t+e, reply)
	}
	return reply
}

// TotalSent sums trace and echo probes for a Prober.
func TotalSent(p Prober) uint64 {
	t, e := p.Sent()
	return t + e
}
