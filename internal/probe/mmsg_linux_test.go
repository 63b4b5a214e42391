package probe

import (
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
)

// The tests below run the real mmsgTransport — the same sendmmsg/
// recvmmsg arena the raw-socket prober uses — over an AF_UNIX datagram
// socketpair, with a fakeroute session answering on the peer end. No
// CAP_NET_RAW needed; datagram boundaries are preserved, so the wire
// bytes are identical to the raw-socket path.

// fakerouteResponder owns the peer descriptor of a socketpair
// transport and answers each received burst of probes with one batched
// send of fakeroute replies, mirroring how replies coalesce on a real
// wire. Reply bytes are copied into reusable slots so the responder
// stays allocation-free in steady state (TestLiveHotPathAllocs measures
// global mallocs).
type fakerouteResponder struct {
	tr    *mmsgTransport
	sess  *fakeroute.Session
	stop  atomic.Bool
	done  chan struct{}
	slots [][]byte
	dsts  []packet.Addr
	// answered counts the replies the kernel has accepted from the
	// responder.
	answered atomic.Uint64
}

func startResponder(sess *fakeroute.Session, peer, maxBatch int) *fakerouteResponder {
	r := &fakerouteResponder{
		tr:    newMMsgTransport(peer, peer, true, maxBatch),
		sess:  sess,
		done:  make(chan struct{}),
		slots: make([][]byte, maxBatch),
		dsts:  make([]packet.Addr, maxBatch),
	}
	for i := range r.slots {
		r.slots[i] = make([]byte, 0, recvBufLen)
	}
	go r.loop()
	return r
}

func (r *fakerouteResponder) loop() {
	defer close(r.done)
	// One persistent callback: a fresh closure per burst would pollute
	// the global malloc counts TestLiveHotPathAllocs measures.
	n := 0
	answer := func(pkt []byte) {
		rep := r.sess.HandleProbe(pkt)
		if rep == nil || n == len(r.slots) {
			return
		}
		r.slots[n] = append(r.slots[n][:0], rep...)
		n++
	}
	for !r.stop.Load() {
		n = 0
		if err := r.tr.RecvSome(time.Now().Add(50*time.Millisecond), answer); err != nil {
			return
		}
		if n > 0 {
			m, _ := r.tr.SendBatch(r.slots[:n], r.dsts[:n])
			r.answered.Add(uint64(m))
		}
	}
}

func (r *fakerouteResponder) close() {
	r.stop.Store(true)
	<-r.done
	r.tr.Close()
}

// socketpairProber wires a LiveProber to a fakeroute-backed responder
// over a socketpair. Callers must call the returned stop function.
func socketpairProber(t testing.TB, seed uint64, maxBatch int, cfg liveConfig) (*LiveProber, *fakeroute.Session, func()) {
	t.Helper()
	tr, resp := socketpairRig(t, seed, maxBatch)
	p := newLiveProber(tSrc, tDst, tr, cfg)
	return p, resp.sess, func() {
		resp.close()
		p.Close()
	}
}

// newSocketpairTransport wires the transport over a connected AF_UNIX
// datagram socketpair and returns the peer descriptor, which a test or
// benchmark responder (see fakerouteResponder) owns and must close.
// Datagram boundaries are preserved, so packets cross the pair exactly
// as they would a raw socket — same codecs, same demux, same syscalls —
// without any capability requirement.
func newSocketpairTransport(maxBatch int) (t *mmsgTransport, peer int, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return nil, 0, &transportError{"socketpair", err}
	}
	return newMMsgTransport(fds[0], fds[0], true, maxBatch), fds[1], nil
}

// socketpairRig opens a socketpair transport and starts a responder for
// the simplest diamond on its peer end.
func socketpairRig(t testing.TB, seed uint64, maxBatch int) (*mmsgTransport, *fakerouteResponder) {
	t.Helper()
	net, _ := fakeroute.BuildScenario(seed, tSrc, tDst, fakeroute.SimplestDiamond)
	tr, peer, err := newSocketpairTransport(maxBatch)
	if err != nil {
		t.Fatalf("socketpair transport: %v", err)
	}
	return tr, startResponder(net.SessionFor(tSrc, tDst), peer, 64)
}

// coalescingTransport holds each receive back until the responder has
// answered every probe the kernel accepted, so that a wave's replies are
// all queued when the prober first reads: the coalesced burst a wire
// delivers, whatever the CPU load. Without it the receive side counts
// scheduling: a responder starved of CPU answers a wave piecemeal, and
// each piece costs the prober a receive. Waiting costs no syscall.
type coalescingTransport struct {
	*mmsgTransport
	answered *atomic.Uint64
	sent     uint64 // packets the kernel accepted from the prober
	cut      uint64 // sends the kernel accepted only part of
}

func (c *coalescingTransport) SendBatch(pkts [][]byte, dsts []packet.Addr) (int, error) {
	n, err := c.mmsgTransport.SendBatch(pkts, dsts)
	c.sent += uint64(n)
	if n < len(pkts) {
		c.cut++
	}
	return n, err
}

func (c *coalescingTransport) RecvSome(deadline time.Time, deliver func(pkt []byte)) error {
	for c.answered.Load() < c.sent && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
	return c.mmsgTransport.RecvSome(deadline, deliver)
}

func roundSpecs(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{FlowID: uint16(i % 6), TTL: 1 + i%3}
	}
	return specs
}

func TestLiveLoopbackRoundTrip(t *testing.T) {
	p, _, stop := socketpairProber(t, 31, 64, liveConfig{Retries: 2, Timeout: 2 * time.Second})
	defer stop()

	specs := roundSpecs(16)
	replies := p.ProbeBatch(specs)
	var hop packet.Addr
	for i, r := range replies {
		if r == nil {
			t.Fatalf("probe %d (flow %d ttl %d) unanswered over socketpair",
				i, specs[i].FlowID, specs[i].TTL)
		}
		if r.Type != packet.ICMPTypeTimeExceeded {
			t.Fatalf("probe %d: type %d, want time exceeded", i, r.Type)
		}
		hop = r.From
	}

	echoes := p.EchoBatch([]EchoSpec{{hop, 1}, {hop, 2}, {hop, 3}})
	for i, r := range echoes {
		if r == nil || !r.IsEchoReply() || r.EchoSeq != uint16(i+1) {
			t.Fatalf("echo %d over socketpair: %+v", i, r)
		}
	}
	trace, echo := p.Sent()
	if trace != 16 || echo != 3 {
		t.Fatalf("Sent() = (%d, %d), want (16, 3)", trace, echo)
	}
}

// TestLiveFallbackTransport pins the per-packet degradation: MaxBatch 1
// disables the mmsg vectors and every send/receive goes through the
// sendto/recvfrom fallback, which must behave identically.
func TestLiveFallbackTransport(t *testing.T) {
	p, _, stop := socketpairProber(t, 32, 1, liveConfig{Retries: 2, Timeout: 2 * time.Second})
	defer stop()

	replies := p.ProbeBatch(roundSpecs(8))
	for i, r := range replies {
		if r == nil {
			t.Fatalf("probe %d unanswered on fallback transport", i)
		}
	}
}

// TestLiveSyscallBudget is the batched wire path's gate in test form:
// a batched 16-probe round must cost at least 5x fewer syscalls than
// the per-packet path. Each side reads its transport's syscall counter
// over rounds whose replies arrive coalesced (coalescingTransport), and
// counts only rounds the kernel accepted whole and answered in full: a
// send cut short by buffer pressure measures a smaller wave. Both sides
// take the minimum over those rounds.
func TestLiveSyscallBudget(t *testing.T) {
	if sysSENDMMSG == 0 {
		t.Skip("no pinned sendmmsg/recvmmsg numbers on this architecture: every round is per-packet")
	}
	const probes = 16
	minRound := func(maxBatch int) uint64 {
		tr, resp := socketpairRig(t, 33, maxBatch)
		c := &coalescingTransport{mmsgTransport: tr, answered: &resp.answered}
		p := newLiveProber(tSrc, tDst, c, liveConfig{Retries: 0, Timeout: 2 * time.Second})
		defer func() {
			resp.close()
			p.Close()
		}()
		specs := roundSpecs(probes)
		p.ProbeBatch(specs) // warm-up: grow arenas, fault pages
		best, whole := ^uint64(0), 0
		for i := 0; i < 50 && whole < 10; i++ {
			before, cut := p.Syscalls(), c.cut
			replies := p.ProbeBatch(specs)
			d := p.Syscalls() - before
			if c.cut != cut || slices.Contains(replies, nil) {
				t.Logf("maxBatch %d round %d not whole: %d syscalls", maxBatch, i, d)
				continue
			}
			whole++
			best = min(best, d)
		}
		if whole == 0 {
			t.Fatalf("maxBatch %d: no round of 50 was sent whole and answered in full", maxBatch)
		}
		return best
	}

	batched := minRound(64)
	perPacket := minRound(1)
	t.Logf("syscalls per %d-probe round: batched=%d per-packet=%d", probes, batched, perPacket)
	if perPacket < 3*probes {
		t.Fatalf("per-packet round cost %d syscalls, expected at least %d (send+timeout+recv per probe)",
			perPacket, 3*probes)
	}
	if batched*5 > perPacket {
		t.Fatalf("batched round = %d syscalls, per-packet = %d: want at least 5x reduction",
			batched, perPacket)
	}
}

// TestLiveHotPathAllocs pins the zero-allocation discipline end to end:
// a steady-state 16-probe round over the real transport stays within a
// constant few allocations (the replies slice and the amortized reply
// arena), independent of the probe count.
func TestLiveHotPathAllocs(t *testing.T) {
	p, _, stop := socketpairProber(t, 34, 64, liveConfig{Retries: 0, Timeout: 2 * time.Second})
	defer stop()

	specs := roundSpecs(16)
	for i := 0; i < 3; i++ { // warm-up: arenas, demux maps, wave buffers
		for _, r := range p.ProbeBatch(specs) {
			if r == nil {
				t.Fatal("warm-up round lost a reply")
			}
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		p.ProbeBatch(specs)
	})
	// One alloc for the replies slice, plus the reply arena's amortized
	// chunk; headroom for the responder goroutine sharing the heap.
	if avg > 4 {
		t.Errorf("allocs per 16-probe round = %.1f, want <= 4 (0 steady-state allocs/probe)", avg)
	}
}

// BenchmarkLiveLoopbackRound measures the live wire path over the
// socketpair loopback: one iteration is a 16-probe MDA-style round.
// probes/s and syscalls/round are the headline metrics the CI baseline
// tracks; the perpacket variant is the pre-batching wire path for
// comparison.
func BenchmarkLiveLoopbackRound(b *testing.B) {
	for _, bc := range []struct {
		name     string
		maxBatch int
	}{
		{"mmsg64", 64},
		{"perpacket", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, _, stop := socketpairProber(b, 35, bc.maxBatch, liveConfig{Retries: 0, Timeout: 2 * time.Second})
			defer stop()
			specs := roundSpecs(16)
			// syscalls/round is the steady-state floor: the minimum over
			// ten sampled rounds, so a scheduler-split receive burst in a
			// single measured iteration (CI runs -benchtime=1x) cannot
			// skew the tracked metric.
			p.ProbeBatch(specs) // warm-up
			minSys := ^uint64(0)
			for i := 0; i < 10; i++ {
				before := p.Syscalls()
				p.ProbeBatch(specs)
				if d := p.Syscalls() - before; d < minSys {
					minSys = d
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				p.ProbeBatch(specs)
			}
			elapsed := time.Since(t0)
			b.StopTimer()
			b.ReportMetric(float64(16*b.N)/elapsed.Seconds(), "probes/s")
			b.ReportMetric(float64(minSys), "syscalls/round")
		})
	}
}
