package probe

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

// The demux tests feed real fakeroute wire bytes — the same ICMP format
// the live path parses — through packet.ParseReplyInto and Demux.Match,
// with no sockets involved.

// quotedChecksumOff is the wire offset of the quoted probe's UDP
// checksum (the Paris identity) inside an ICMP error reply: outer IP,
// ICMP header, quoted IP, then 6 bytes into the quoted UDP header.
const quotedChecksumOff = packet.IPv4HeaderLen + packet.ICMPHeaderLen + packet.IPv4HeaderLen + 6

func demuxSession(t *testing.T) *fakeroute.Session {
	t.Helper()
	net, _ := fakeroute.BuildScenario(7, tSrc, tDst, fakeroute.SimplestDiamond)
	return net.SessionFor(tSrc, tDst)
}

// traceReplyRaw sends one probe through the session and returns a copy
// of the raw reply bytes (HandleProbe's scratch is reused per call).
func traceReplyRaw(t *testing.T, sess *fakeroute.Session, flowID uint16, ttl int, identity uint16) []byte {
	t.Helper()
	pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: flowID, TTL: byte(ttl), Checksum: identity}
	raw := sess.HandleProbe(pr.AppendTo(nil))
	if raw == nil {
		t.Fatalf("no reply for flow %d ttl %d", flowID, ttl)
	}
	return append([]byte(nil), raw...)
}

func echoReplyRaw(t *testing.T, sess *fakeroute.Session, dst packet.Addr, id, seq uint16) []byte {
	t.Helper()
	ep := packet.EchoProbe{Src: tSrc, Dst: dst, ID: id, Seq: seq, IPID: seq}
	raw := sess.HandleProbe(ep.AppendTo(nil))
	if raw == nil {
		t.Fatalf("no echo reply from %v seq %d", dst, seq)
	}
	return append([]byte(nil), raw...)
}

func parseRaw(t *testing.T, raw []byte) *packet.Reply {
	t.Helper()
	var r packet.Reply
	if err := packet.ParseReplyInto(&r, raw); err != nil {
		t.Fatalf("ParseReplyInto: %v", err)
	}
	return &r
}

func TestDemuxQuotedIdentityMatch(t *testing.T) {
	sess := demuxSession(t)
	var d Demux
	d.BeginWave(tDst, liveEchoID)

	// Three probes in flight; replies arrive out of order.
	idents := []uint16{101, 102, 103}
	raws := make([][]byte, len(idents))
	for i, id := range idents {
		d.AddTrace(id, i)
		raws[i] = traceReplyRaw(t, sess, uint16(i), 1+i, id)
	}
	if got := d.Outstanding(); got != 3 {
		t.Fatalf("Outstanding = %d, want 3", got)
	}
	for _, i := range []int{2, 0, 1} {
		r := parseRaw(t, raws[i])
		if r.ProbeIdentity != idents[i] {
			t.Fatalf("reply %d quotes identity %#x, want %#x", i, r.ProbeIdentity, idents[i])
		}
		idx, ok := d.Match(r)
		if !ok || idx != i {
			t.Fatalf("Match(reply %d) = %d, %v; want %d, true", i, idx, ok, i)
		}
	}
	if got := d.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after all matches = %d, want 0", got)
	}
	// A matched identity does not match twice (late duplicate).
	if _, ok := d.Match(parseRaw(t, raws[0])); ok {
		t.Fatal("duplicate reply matched after its identity was consumed")
	}
}

func TestDemuxUnknownIdentityIgnored(t *testing.T) {
	sess := demuxSession(t)
	var d Demux
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(50, 0)

	// A reply quoting a foreign identity (late arrival from a previous
	// wave) must not consume the outstanding probe.
	r := parseRaw(t, traceReplyRaw(t, sess, 0, 1, 999))
	if _, ok := d.Match(r); ok {
		t.Fatal("reply with unknown identity matched")
	}
	if got := d.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
}

func TestDemuxIdentitylessSingleton(t *testing.T) {
	sess := demuxSession(t)
	raw := traceReplyRaw(t, sess, 0, 1, 77)
	// Model a router that zeroes the quoted transport checksum: the
	// reply parses but carries no identity.
	raw[quotedChecksumOff] = 0
	raw[quotedChecksumOff+1] = 0
	r := parseRaw(t, raw)
	if r.ProbeIdentity != 0 {
		t.Fatalf("stripped reply still carries identity %#x", r.ProbeIdentity)
	}
	if r.ProbeDst != tDst {
		t.Fatalf("quoted dst = %v, want %v", r.ProbeDst, tDst)
	}

	var d Demux
	// Two probes outstanding: ambiguous, must not match.
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(77, 0)
	d.AddTrace(78, 1)
	if _, ok := d.Match(r); ok {
		t.Fatal("identity-less reply matched with two probes outstanding")
	}

	// Single probe outstanding: attributable.
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(77, 4)
	idx, ok := d.Match(r)
	if !ok || idx != 4 {
		t.Fatalf("singleton match = %d, %v; want 4, true", idx, ok)
	}
	if d.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0", d.Outstanding())
	}
}

func TestDemuxIdentitylessWrongDst(t *testing.T) {
	sess := demuxSession(t)
	raw := traceReplyRaw(t, sess, 0, 1, 77)
	raw[quotedChecksumOff] = 0
	raw[quotedChecksumOff+1] = 0
	r := parseRaw(t, raw)

	// The wave is toward a different destination than the quote: even a
	// singleton must not claim the reply.
	var d Demux
	d.BeginWave(tDst+1, liveEchoID)
	d.AddTrace(77, 0)
	if _, ok := d.Match(r); ok {
		t.Fatal("identity-less reply matched despite quoted dst mismatch")
	}
}

func TestDemuxTruncatedQuote(t *testing.T) {
	sess := demuxSession(t)
	full := traceReplyRaw(t, sess, 0, 1, 123)

	// Truncated inside the quoted UDP header: the identity is gone but
	// the quoted IP header still confirms the destination, so the
	// singleton fallback applies.
	shortUDP := full[:packet.IPv4HeaderLen+packet.ICMPHeaderLen+packet.IPv4HeaderLen+4]
	r := parseRaw(t, shortUDP)
	if r.ProbeIdentity != 0 {
		t.Fatalf("truncated quote still carries identity %#x", r.ProbeIdentity)
	}
	if r.ProbeDst != tDst {
		t.Fatalf("quoted dst = %v, want %v", r.ProbeDst, tDst)
	}
	var d Demux
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(123, 2)
	if idx, ok := d.Match(r); !ok || idx != 2 {
		t.Fatalf("singleton match on UDP-truncated quote = %d, %v; want 2, true", idx, ok)
	}

	// Truncated before the quoted IP header is decodable: no identity
	// and no quoted destination — unattributable even as a singleton.
	shortIP := full[:packet.IPv4HeaderLen+packet.ICMPHeaderLen+10]
	r2 := parseRaw(t, shortIP)
	if r2.ProbeDst != 0 {
		t.Fatalf("IP-truncated quote still carries dst %v", r2.ProbeDst)
	}
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(123, 2)
	if _, ok := d.Match(r2); ok {
		t.Fatal("reply with undecodable quote matched")
	}
}

// hopAddr recovers a pingable on-path interface address: the
// destination itself owns no interface in fakeroute, so echo tests
// target the hop that answered a trace probe.
func hopAddr(t *testing.T, sess *fakeroute.Session, ttl int) packet.Addr {
	t.Helper()
	r := parseRaw(t, traceReplyRaw(t, sess, 0, ttl, 900+uint16(ttl)))
	return r.From
}

func TestDemuxEchoDuplicateSpecs(t *testing.T) {
	sess := demuxSession(t)
	hop := hopAddr(t, sess, 2)
	var d Demux
	d.BeginWave(tDst, liveEchoID)

	// Two specs with the same (addr, seq): FIFO attribution.
	d.AddEcho(hop, 9, 0)
	d.AddEcho(hop, 9, 1)
	if got := d.Outstanding(); got != 2 {
		t.Fatalf("Outstanding = %d, want 2", got)
	}
	raw := echoReplyRaw(t, sess, hop, liveEchoID, 9)
	if idx, ok := d.Match(parseRaw(t, raw)); !ok || idx != 0 {
		t.Fatalf("first duplicate reply = %d, %v; want 0, true", idx, ok)
	}
	if idx, ok := d.Match(parseRaw(t, raw)); !ok || idx != 1 {
		t.Fatalf("second duplicate reply = %d, %v; want 1, true", idx, ok)
	}
	if _, ok := d.Match(parseRaw(t, raw)); ok {
		t.Fatal("third reply matched with no registration left")
	}
}

func TestDemuxEchoWrongID(t *testing.T) {
	sess := demuxSession(t)
	hop := hopAddr(t, sess, 2)
	var d Demux
	d.BeginWave(tDst, liveEchoID)
	d.AddEcho(hop, 3, 0)

	// A reply carrying a foreign echo identifier (another tool's ping on
	// a shared raw socket) must not be attributed.
	raw := echoReplyRaw(t, sess, hop, 0x1111, 3)
	if _, ok := d.Match(parseRaw(t, raw)); ok {
		t.Fatal("echo reply with foreign ID matched")
	}
	if got := d.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d, want 1", got)
	}
}

func TestDemuxDropUnsent(t *testing.T) {
	var d Demux
	d.BeginWave(tDst, liveEchoID)
	d.AddTrace(5, 0)
	d.AddTrace(6, 1)
	d.AddEcho(tDst, 1, 2)
	d.AddEcho(tDst, 1, 3)

	d.DropTrace(6)
	d.DropEcho(tDst, 1, 3)
	if got := d.Outstanding(); got != 2 {
		t.Fatalf("Outstanding after drops = %d, want 2", got)
	}
	if d.HasIdentity(6) {
		t.Fatal("dropped identity still registered")
	}
	if !d.HasIdentity(5) {
		t.Fatal("live identity lost by unrelated drop")
	}
}

// TestLiveNextSerialSkipsInflight pins the wraparound guard: a wrapped
// serial counter must not hand out an identity owned by an in-flight
// probe of the current wave.
func TestLiveNextSerialSkipsInflight(t *testing.T) {
	p := &LiveProber{}
	p.demux.BeginWave(tDst, liveEchoID)
	p.demux.AddTrace(0xffff, 0)
	p.demux.AddTrace(1, 1)
	p.serial = 0xfffe
	if got := p.nextSerial(); got != 2 {
		t.Fatalf("nextSerial = %#x, want 2 (skipping 0xffff, 0, and in-flight 1)", got)
	}
}
