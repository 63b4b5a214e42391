//go:build linux

package probe

import (
	"os"
	"testing"

	"mmlpt/internal/packet"
)

// The smoke tests below exercise the real raw-socket transport against
// the kernel's own ICMP machinery on loopback: UDP probes to a closed
// port draw port-unreachable errors (quoting our probe, so identity
// demux runs for real), and echo probes draw the kernel's ping
// responder. They are opt-in (MMLPT_LIVE_SMOKE=1) because they need
// CAP_NET_RAW and a network namespace where loopback ICMP is not
// filtered; CI runs them in a disposable netns when privileges allow.

func liveSmokeProber(t *testing.T) *LiveProber {
	t.Helper()
	if os.Getenv("MMLPT_LIVE_SMOKE") != "1" {
		t.Skip("live loopback smoke disabled; set MMLPT_LIVE_SMOKE=1 to run")
	}
	lo := packet.MustParseAddr("127.0.0.1")
	p, err := NewLiveProber(lo, lo)
	if err != nil {
		// Enabled but unprivileged: skip rather than fail, as the CI
		// netns step does when it cannot elevate.
		t.Skipf("raw sockets unavailable: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestLiveLoopbackSmoke(t *testing.T) {
	p := liveSmokeProber(t)
	// The kernel rate-limits destination-unreachable ICMP, so a small
	// round may be partially answered; one attributed reply proves the
	// whole path (raw send, checksum-valid probe, kernel quote, identity
	// demux).
	replies := p.ProbeBatch([]Spec{{0, 64}, {1, 64}, {2, 64}})
	got := 0
	for i, r := range replies {
		if r == nil {
			continue
		}
		got++
		if !r.IsPortUnreachable() {
			t.Errorf("probe %d: type %d code %d, want port unreachable", i, r.Type, r.Code)
		}
		if r.From != p.Dst_ {
			t.Errorf("probe %d: reply from %v, want %v", i, r.From, p.Dst_)
		}
	}
	if got == 0 {
		t.Fatal("no loopback port-unreachable replies attributed")
	}
	t.Logf("attributed %d/3 port-unreachable replies (ICMP rate limiting may drop the rest)", got)
}

func TestLiveEchoSmoke(t *testing.T) {
	p := liveSmokeProber(t)
	lo := packet.MustParseAddr("127.0.0.1")
	// Echo replies are not rate-limited: all should come back.
	replies := p.EchoBatch([]EchoSpec{{lo, 1}, {lo, 2}, {lo, 3}})
	for i, r := range replies {
		if r == nil {
			t.Fatalf("echo %d to loopback unanswered", i)
		}
		if !r.IsEchoReply() || r.EchoSeq != uint16(i+1) {
			t.Fatalf("echo %d: %+v, want echo reply seq %d", i, r, i+1)
		}
	}
}
