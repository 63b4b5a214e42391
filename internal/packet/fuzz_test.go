package packet

import (
	"testing"
	"testing/quick"
)

// Robustness: no decoder may panic on arbitrary bytes — a tracer parses
// whatever the network throws at it. Errors are fine; panics are not.

func neverPanics(t *testing.T, name string, f func(data []byte)) {
	t.Helper()
	check := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("%s panicked on %x: %v", name, data, r)
				ok = false
			}
		}()
		f(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	neverPanics(t, "IPv4", func(data []byte) {
		var h IPv4
		_, _ = h.DecodeFromBytes(data)
	})
	neverPanics(t, "UDP", func(data []byte) {
		var u UDP
		_, _ = u.DecodeFromBytes(data)
	})
	neverPanics(t, "ICMP", func(data []byte) {
		var m ICMP
		_ = m.DecodeFromBytes(data)
	})
	neverPanics(t, "MPLS", func(data []byte) {
		_, _ = DecodeMPLSExtension(data)
	})
	neverPanics(t, "ParseReply", func(data []byte) {
		_, _ = ParseReply(data)
	})
	neverPanics(t, "ParseProbe", func(data []byte) {
		_, _ = ParseProbe(data)
	})
	neverPanics(t, "VerifyProbe", func(data []byte) {
		_ = VerifyProbe(data)
	})
}

// TestDecodersNeverPanicOnTruncatedValid feeds every prefix of a valid
// reply to the parser: truncation at any byte must not panic.
func TestDecodersNeverPanicOnTruncatedValid(t *testing.T) {
	quoted := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 3, TTL: 1, Checksum: 42,
	}
	icmp := ICMP{
		Type: ICMPTypeTimeExceeded, Payload: (&quoted).Serialize(),
		Extensions: AppendMPLSExtension(nil, MPLSLabelStackEntry{Label: 9, S: true, TTL: 1}),
	}
	body := icmp.SerializeTo(nil)
	ip := IPv4{ID: 1, TTL: 64, Protocol: ProtoICMP,
		Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("192.0.2.1")}
	raw := ip.SerializeTo(nil, len(body))
	raw = append(raw, body...)
	for n := 0; n <= len(raw); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at prefix %d: %v", n, r)
				}
			}()
			_, _ = ParseReply(raw[:n])
		}()
	}
}

// TestDecodersNeverPanicOnBitFlips flips each byte of a valid reply.
func TestDecodersNeverPanicOnBitFlips(t *testing.T) {
	pr := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 1, TTL: 1, Checksum: 5,
	}
	icmp := ICMP{Type: ICMPTypeTimeExceeded, Payload: (&pr).Serialize()}
	body := icmp.SerializeTo(nil)
	ip := IPv4{TTL: 64, Protocol: ProtoICMP,
		Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("192.0.2.1")}
	raw := ip.SerializeTo(nil, len(body))
	raw = append(raw, body...)
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		for _, b := range []byte{0x00, 0xff, raw[i] ^ 0x80} {
			copy(mut, raw)
			mut[i] = b
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic flipping byte %d to %#x: %v", i, b, r)
					}
				}()
				_, _ = ParseReply(mut)
				_, _ = ParseProbe(mut)
			}()
		}
	}
}
