package probe

import (
	"errors"
	"testing"
	"time"

	"mmlpt/internal/packet"
)

// fakeTransport is an in-memory batchTransport: accepted packets are
// answered synchronously through a respond function (usually a fakeroute
// session) into a reply queue that RecvSome drains. It lets the
// LiveProber state machine — waves, retries, sent accounting, demux —
// run without sockets or timers.
type fakeTransport struct {
	// respond crafts the reply bytes for an accepted packet; nil return
	// models a dropped probe. The result is copied.
	respond func(pkt []byte) []byte
	// accept caps the total packets accepted across all SendBatch calls
	// (-1 = unlimited); the excess is refused as a short count.
	accept int
	// failWith, when non-nil, is returned alongside the short count the
	// first time the accept cap truncates a send.
	failWith error

	sent     int
	syscalls uint64
	queue    [][]byte
}

// errDrained models an empty wire: the prober treats a RecvSome error
// as the end of the wave, which keeps these tests timer-free.
var errDrained = errors.New("fake transport drained")

func newFakeTransport(respond func(pkt []byte) []byte) *fakeTransport {
	return &fakeTransport{respond: respond, accept: -1}
}

func (f *fakeTransport) SendBatch(pkts [][]byte, dsts []packet.Addr) (int, error) {
	f.syscalls++
	n := len(pkts)
	var err error
	if f.accept >= 0 && n > f.accept-f.sent {
		n = f.accept - f.sent
		if n < 0 {
			n = 0
		}
		err = f.failWith
		f.failWith = nil
	}
	for _, pkt := range pkts[:n] {
		if f.respond == nil {
			continue
		}
		if rep := f.respond(pkt); rep != nil {
			f.queue = append(f.queue, append([]byte(nil), rep...))
		}
	}
	f.sent += n
	return n, err
}

func (f *fakeTransport) RecvSome(deadline time.Time, deliver func(pkt []byte)) error {
	f.syscalls++
	if len(f.queue) == 0 {
		return errDrained
	}
	for _, pkt := range f.queue {
		deliver(pkt)
	}
	f.queue = f.queue[:0]
	return nil
}

func (f *fakeTransport) Syscalls() uint64 { return f.syscalls }
func (f *fakeTransport) Close() error     { return nil }

func liveOverFake(t *testing.T, ft *fakeTransport, cfg liveConfig) *LiveProber {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
	return newLiveProber(tSrc, tDst, ft, cfg)
}

func TestLiveSentExcludesFailedSends(t *testing.T) {
	sess := demuxSession(t)
	ft := newFakeTransport(sess.HandleProbe)
	ft.accept = 2
	ft.failWith = errors.New("no buffer space")
	p := liveOverFake(t, ft, liveConfig{})

	specs := []Spec{{0, 1}, {1, 1}, {2, 2}, {3, 2}}
	replies := p.ProbeBatch(specs)

	trace, echo := p.Sent()
	if trace != 2 || echo != 0 {
		t.Fatalf("Sent() = (%d, %d), want (2, 0): failed sends must not count", trace, echo)
	}
	for i := 0; i < 2; i++ {
		if replies[i] == nil {
			t.Fatalf("reply %d missing for an accepted probe", i)
		}
	}
	for i := 2; i < 4; i++ {
		if replies[i] != nil {
			t.Fatalf("reply %d present for a probe that never left the socket", i)
		}
	}
}

func TestLiveEchoSentExcludesFailedSends(t *testing.T) {
	sess := demuxSession(t)
	hop := hopAddr(t, sess, 2)
	ft := newFakeTransport(sess.HandleProbe)
	ft.accept = 1
	p := liveOverFake(t, ft, liveConfig{})

	replies := p.EchoBatch([]EchoSpec{{hop, 1}, {hop, 2}, {hop, 3}})
	trace, echo := p.Sent()
	if trace != 0 || echo != 1 {
		t.Fatalf("Sent() = (%d, %d), want (0, 1)", trace, echo)
	}
	if replies[0] == nil || replies[1] != nil || replies[2] != nil {
		t.Fatalf("replies = %v, want only the first answered", replies)
	}
}

func TestLiveProbeBatchRoundTrip(t *testing.T) {
	sess := demuxSession(t)
	ft := newFakeTransport(sess.HandleProbe)
	p := liveOverFake(t, ft, liveConfig{})

	// SimplestDiamond: divergent hops at TTL 1, convergence at TTL 2; a
	// high TTL overshoots the destination and draws port unreachable.
	specs := []Spec{{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 8}, {1, 8}}
	replies := p.ProbeBatch(specs)
	for i, r := range replies {
		if r == nil {
			t.Fatalf("probe %d (flow %d ttl %d) got no reply", i, specs[i].FlowID, specs[i].TTL)
		}
		if !r.HasQuotedFlow || r.ProbeFlowID != specs[i].FlowID {
			t.Fatalf("probe %d attributed to flow %d, want %d", i, r.ProbeFlowID, specs[i].FlowID)
		}
	}
	for _, i := range []int{4, 5} {
		if !replies[i].IsPortUnreachable() {
			t.Fatalf("probe %d past the destination: type %d, want port unreachable", i, replies[i].Type)
		}
	}
	for _, i := range []int{0, 1, 2, 3} {
		if replies[i].Type != packet.ICMPTypeTimeExceeded {
			t.Fatalf("probe %d mid-path: type %d, want time exceeded", i, replies[i].Type)
		}
	}
	if trace, _ := p.Sent(); trace != uint64(len(specs)) {
		t.Fatalf("Sent() = %d, want %d", trace, len(specs))
	}
}

func TestLiveEchoBatchRoundTrip(t *testing.T) {
	sess := demuxSession(t)
	hop1 := hopAddr(t, sess, 1)
	hop2 := hopAddr(t, sess, 2)
	ft := newFakeTransport(sess.HandleProbe)
	p := liveOverFake(t, ft, liveConfig{})

	// Includes a duplicated (addr, seq) pair: both specs must resolve.
	specs := []EchoSpec{{hop1, 1}, {hop2, 2}, {hop2, 2}, {hop1, 7}}
	replies := p.EchoBatch(specs)
	for i, r := range replies {
		if r == nil {
			t.Fatalf("echo %d to %v got no reply", i, specs[i].Addr)
		}
		if !r.IsEchoReply() || r.From != specs[i].Addr || r.EchoSeq != specs[i].Seq {
			t.Fatalf("echo %d: reply from %v seq %d, want %v seq %d",
				i, r.From, r.EchoSeq, specs[i].Addr, specs[i].Seq)
		}
	}
	if _, echo := p.Sent(); echo != uint64(len(specs)) {
		t.Fatalf("Sent() echo = %d, want %d", echo, len(specs))
	}
}

func TestLiveRetryResends(t *testing.T) {
	sess := demuxSession(t)
	dropped := 0
	respond := func(pkt []byte) []byte {
		// The wire eats the first two probes; retries get through.
		if dropped < 2 {
			dropped++
			return nil
		}
		return sess.HandleProbe(pkt)
	}
	p := liveOverFake(t, newFakeTransport(respond), liveConfig{Retries: 1})

	replies := p.ProbeBatch([]Spec{{0, 1}, {1, 2}})
	for i, r := range replies {
		if r == nil {
			t.Fatalf("probe %d unanswered after retry", i)
		}
	}
	if trace, _ := p.Sent(); trace != 4 {
		t.Fatalf("Sent() = %d, want 4 (2 probes + 2 retries)", trace)
	}
}

// TestLiveIdentitylessSingletonRetry pins the final-attempt degradation:
// when every router strips the quoted identity, a full wave is
// unattributable, but the last attempt's one-at-a-time waves let the
// singleton fallback claim each reply.
func TestLiveIdentitylessSingletonRetry(t *testing.T) {
	sess := demuxSession(t)
	respond := func(pkt []byte) []byte {
		rep := sess.HandleProbe(pkt)
		if rep == nil {
			return nil
		}
		out := append([]byte(nil), rep...)
		if len(out) > quotedChecksumOff+1 {
			out[quotedChecksumOff] = 0
			out[quotedChecksumOff+1] = 0
		}
		return out
	}
	p := liveOverFake(t, newFakeTransport(respond), liveConfig{Retries: 1})

	replies := p.ProbeBatch([]Spec{{0, 1}, {1, 1}, {0, 2}})
	for i, r := range replies {
		if r == nil {
			t.Fatalf("probe %d unanswered: singleton fallback did not attribute", i)
		}
		if r.ProbeIdentity != 0 {
			t.Fatalf("probe %d reply carries identity %#x, want stripped", i, r.ProbeIdentity)
		}
	}
	// Wave 1 sends all three (unattributable), the final attempt re-sends
	// each as its own wave.
	if trace, _ := p.Sent(); trace != 6 {
		t.Fatalf("Sent() = %d, want 6", trace)
	}
}

// TestLiveBatchOfOne pins the Probe/Echo adapters over the batched core.
func TestLiveBatchOfOne(t *testing.T) {
	sess := demuxSession(t)
	ft := newFakeTransport(sess.HandleProbe)
	p := liveOverFake(t, ft, liveConfig{})

	r := p.Probe(0, 1)
	if r == nil || r.Type != packet.ICMPTypeTimeExceeded {
		t.Fatalf("Probe(0, 1) = %+v, want time exceeded", r)
	}
	hop := r.From
	er := p.Echo(hop, 42)
	if er == nil || !er.IsEchoReply() || er.EchoSeq != 42 {
		t.Fatalf("Echo(%v, 42) = %+v, want echo reply seq 42", hop, er)
	}
	trace, echo := p.Sent()
	if trace != 1 || echo != 1 {
		t.Fatalf("Sent() = (%d, %d), want (1, 1)", trace, echo)
	}
}
