package probe

import (
	"fmt"
	"os"
	"time"

	"mmlpt/internal/packet"
)

// LiveProber sends real probes over a batchTransport — in production,
// Linux raw sockets driven by sendmmsg/recvmmsg (see NewLiveProberConfig in
// live_linux.go). It implements the same Prober interface as the
// simulator-backed prober, so every algorithm in this repository can
// run unmodified against the live Internet.
//
// The wire path follows the repository's hot-path discipline end to
// end: each wave is serialized with the AppendTo codecs into a reusable
// set of prober-owned buffers, handed to the kernel in one (or few)
// sendmmsg calls, and replies are drained with batched receives, parsed
// in place with ParseReplyInto, and attributed by a syscall-free Demux.
// In steady state the send+demux path allocates nothing per probe; the
// syscall count per MDA round is a small constant instead of linear in
// the round size (pinned by TestLiveSyscallBudget and
// BenchmarkLiveLoopbackRound).
//
// A LiveProber is not safe for concurrent use; run one prober per
// traced pair, as the survey runner does.
type LiveProber struct {
	Src, Dst_ packet.Addr
	// Timeout bounds the wait for each wave's replies (default 2s).
	Timeout time.Duration
	// Retries re-sends unanswered probes on timeout.
	Retries int

	tr     batchTransport
	serial uint16

	traceSent uint64
	echoSent  uint64

	demux   Demux
	arena   replyArena
	scratch packet.Reply

	// deliver is the persistent RecvSome callback (allocated once, not
	// per receive burst); it fills curReplies for the wave in flight.
	deliver    func(pkt []byte)
	curReplies []*packet.Reply

	// Per-wave serialization scratch, reused across waves.
	bufs   [][]byte
	dsts   []packet.Addr
	idents []uint16

	// Retry-loop scratch.
	pending []int
	single  [1]int
}

// LiveConfig carries the live prober's tunables.
type LiveConfig struct {
	// Timeout bounds the wait for each wave's replies (0 = 2s).
	Timeout time.Duration
	// Retries re-sends unanswered probes up to this many times; the
	// final retry sends one probe at a time (see ProbeBatch). Zero
	// means a single attempt.
	Retries int
	// MaxBatch caps how many packets one sendmmsg/recvmmsg call
	// carries (0 = 64). Larger waves are split into MaxBatch-sized
	// syscalls.
	MaxBatch int
}

func (c *LiveConfig) fill() {
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
}

// newLiveProber assembles a prober over an open transport.
func newLiveProber(src, dst packet.Addr, tr batchTransport, cfg LiveConfig) *LiveProber {
	cfg.fill()
	p := &LiveProber{
		Src: src, Dst_: dst,
		Timeout: cfg.Timeout, Retries: cfg.Retries,
		tr: tr,
	}
	p.deliver = func(pkt []byte) {
		if packet.ParseReplyInto(&p.scratch, pkt) != nil {
			return
		}
		idx, ok := p.demux.Match(&p.scratch)
		if !ok {
			return
		}
		r := p.arena.next()
		*r = p.scratch
		p.curReplies[idx] = r
	}
	return p
}

// Close releases the transport's sockets.
func (p *LiveProber) Close() error { return p.tr.Close() }

// Dst implements Prober.
func (p *LiveProber) Dst() packet.Addr { return p.Dst_ }

// Sent implements Prober. Only packets the kernel actually accepted are
// counted: a failed or refused send is not a probe the paper's cost
// metrics should see.
func (p *LiveProber) Sent() (uint64, uint64) { return p.traceSent, p.echoSent }

// Syscalls reports the cumulative system calls issued by the prober's
// transport.
func (p *LiveProber) Syscalls() uint64 { return p.tr.Syscalls() }

// nextSerial allocates a non-zero probe identity not currently owned by
// another in-flight probe of the same wave, so a wrapped serial counter
// cannot hand out a live identity (replies would be unattributable).
func (p *LiveProber) nextSerial() uint16 {
	for i := 0; i < 1<<16; i++ {
		p.serial++
		if p.serial == 0 {
			p.serial = 1
		}
		if !p.demux.HasIdentity(p.serial) {
			return p.serial
		}
	}
	return p.serial
}

func (p *LiveProber) timeout() time.Duration {
	if p.Timeout <= 0 {
		return 2 * time.Second
	}
	return p.Timeout
}

// Probe implements Prober as a batch of one.
func (p *LiveProber) Probe(flowID uint16, ttl int) *packet.Reply {
	return p.ProbeBatch([]Spec{{FlowID: flowID, TTL: ttl}})[0]
}

// Echo implements Prober as a batch of one.
func (p *LiveProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	return p.EchoBatch([]EchoSpec{{Addr: addr, Seq: seq}})[0]
}

// ProbeBatch implements Prober: the whole round is serialized into the
// prober's wave buffers and sent in one (or few) batched syscalls, and
// the replies are collected with batched receives as they arrive, so
// the round-trip and syscall cost is paid once per round rather than
// once per probe. Unanswered probes are retried (as a smaller wave) up
// to Retries times; the final retry sends one probe at a time, because
// a router that truncates the quoted probe (identity-less reply) can
// only be attributed while a single probe is outstanding.
func (p *LiveProber) ProbeBatch(specs []Spec) []*packet.Reply {
	for _, sp := range specs {
		if sp.FlowID > packet.MaxFlowID {
			panic("probe: flow ID out of range")
		}
	}
	replies := make([]*packet.Reply, len(specs))
	p.runRounds(len(specs), true, replies, func(wave []int) {
		p.sendTraceWave(specs, wave)
	})
	return replies
}

// EchoBatch implements Prober, overlapping the round's echoes the same
// way ProbeBatch overlaps traceroute probes. Replies are attributed by
// (address, echo id, sequence); specs sharing both address and sequence
// resolve to the first unanswered one.
func (p *LiveProber) EchoBatch(specs []EchoSpec) []*packet.Reply {
	replies := make([]*packet.Reply, len(specs))
	p.runRounds(len(specs), false, replies, func(wave []int) {
		p.sendEchoWave(specs, wave)
	})
	return replies
}

// liveEchoID tags this prober's echo probes so foreign echo replies on
// a shared raw socket are never attributed to a wave.
const liveEchoID = 0x4d4c

// runRounds is the send/receive/retry state machine shared by the trace
// and echo paths: up to Retries+1 attempts, each sending the still
// unanswered specs as one wave and collecting replies until the wave's
// deadline. When singletonFinal is set the last retry degrades to
// one-probe waves, the only configuration in which an identity-less
// reply is attributable.
func (p *LiveProber) runRounds(n int, singletonFinal bool, replies []*packet.Reply, send func(wave []int)) {
	if cap(p.pending) < n {
		p.pending = make([]int, 0, n)
	}
	pending := p.pending[:0]
	for i := 0; i < n; i++ {
		pending = append(pending, i)
	}
	attempts := p.Retries + 1
	for a := 0; a < attempts && len(pending) > 0; a++ {
		// Only an actual retry degrades to singletons: with Retries == 0
		// the one attempt goes out as a full batched wave.
		if a == attempts-1 && a > 0 && singletonFinal && len(pending) > 1 {
			for _, i := range pending {
				p.single[0] = i
				p.runWave(p.single[:], replies, send)
			}
		} else {
			p.runWave(pending, replies, send)
		}
		pending = pending[:0]
		for i := 0; i < n; i++ {
			if replies[i] == nil {
				pending = append(pending, i)
			}
		}
	}
	p.pending = pending[:0]
}

// runWave sends one wave and drains its replies until the timeout,
// filling the replies slice in place.
func (p *LiveProber) runWave(wave []int, replies []*packet.Reply, send func(wave []int)) {
	send(wave)
	if p.demux.Outstanding() == 0 {
		return
	}
	p.curReplies = replies
	deadline := time.Now().Add(p.timeout())
	for p.demux.Outstanding() > 0 && time.Now().Before(deadline) {
		if err := p.tr.RecvSome(deadline, p.deliver); err != nil {
			return
		}
	}
}

// growWave sizes the serialization scratch for an n-probe wave, keeping
// previously grown buffers so steady-state waves allocate nothing.
func (p *LiveProber) growWave(n int) {
	if cap(p.bufs) < n {
		bufs := make([][]byte, n)
		copy(bufs, p.bufs[:cap(p.bufs)])
		p.bufs = bufs
		p.dsts = make([]packet.Addr, n)
		p.idents = make([]uint16, n)
	}
	p.bufs = p.bufs[:n]
	p.dsts = p.dsts[:n]
	p.idents = p.idents[:n]
}

// sendTraceWave serializes and transmits one wave of traceroute probes,
// registering each successfully sent probe with the demux and counting
// only packets that actually left the socket.
func (p *LiveProber) sendTraceWave(specs []Spec, wave []int) {
	p.demux.BeginWave(p.Dst_, liveEchoID)
	p.growWave(len(wave))
	for k, i := range wave {
		identity := p.nextSerial()
		pr := packet.Probe{
			Src: p.Src, Dst: p.Dst_,
			FlowID: specs[i].FlowID, TTL: byte(specs[i].TTL), Checksum: identity,
		}
		p.bufs[k] = pr.AppendTo(p.bufs[k][:0])
		p.dsts[k] = p.Dst_
		p.idents[k] = identity
		p.demux.AddTrace(identity, i)
	}
	n, err := p.tr.SendBatch(p.bufs, p.dsts)
	for k := n; k < len(wave); k++ {
		p.demux.DropTrace(p.idents[k])
	}
	p.traceSent += uint64(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe: send batch: %v (%d of %d sent)\n", err, n, len(wave))
	}
}

// sendEchoWave is sendTraceWave for direct (ping-style) probes.
func (p *LiveProber) sendEchoWave(specs []EchoSpec, wave []int) {
	p.demux.BeginWave(p.Dst_, liveEchoID)
	p.growWave(len(wave))
	for k, i := range wave {
		// The probe's IP ID is set to seq so callers can detect routers
		// that copy the probe ID into the reply (a MIDAR "unable" cause).
		ep := packet.EchoProbe{
			Src: p.Src, Dst: specs[i].Addr,
			ID: liveEchoID, Seq: specs[i].Seq, IPID: specs[i].Seq,
		}
		p.bufs[k] = ep.AppendTo(p.bufs[k][:0])
		p.dsts[k] = specs[i].Addr
		p.demux.AddEcho(specs[i].Addr, specs[i].Seq, i)
	}
	n, err := p.tr.SendBatch(p.bufs, p.dsts)
	for k := n; k < len(wave); k++ {
		i := wave[k]
		p.demux.DropEcho(specs[i].Addr, specs[i].Seq, i)
	}
	p.echoSent += uint64(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe: send batch: %v (%d of %d sent)\n", err, n, len(wave))
	}
}
