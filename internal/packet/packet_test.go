package packet

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.0.2.255", "255.255.255.255", "1.2.3.4"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrRejectsMalformed(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.", ".1.2.3", "1.2.3.4 "}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", s)
		}
	}
}

func TestAddrAppendText(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		var buf [15]byte
		got := a.AppendText(buf[:0])
		want := fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		return string(got) == want && a.String() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Appending extends, never clobbers, an existing prefix.
	b := a1234Prefix()
	b = Addr(0x01020304).AppendText(b)
	if string(b) != "x=1.2.3.4" {
		t.Fatalf("AppendText onto prefix = %q", b)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [15]byte
		_ = Addr(0xc0000216).AppendText(buf[:0])
	}); n != 0 {
		t.Fatalf("AppendText into sized buffer allocates %v times", n)
	}
}

func a1234Prefix() []byte { return append(make([]byte, 0, 32), "x="...) }

func TestParseAddrPropertyRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("checksum = %#x, want 0x220d", got)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS: 0x10, ID: 0xbeef, TTL: 17, Protocol: ProtoUDP,
		Src: MustParseAddr("10.1.2.3"), Dst: MustParseAddr("10.4.5.6"),
	}
	payload := []byte{1, 2, 3, 4, 5}
	buf := h.SerializeTo(nil, len(payload))
	buf = append(buf, payload...)
	var g IPv4
	rest, err := g.DecodeFromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != h.ID || g.TTL != h.TTL || g.Protocol != h.Protocol || g.Src != h.Src || g.Dst != h.Dst {
		t.Fatalf("decoded %+v, want %+v", g, h)
	}
	if len(rest) != len(payload) || rest[0] != 1 || rest[4] != 5 {
		t.Fatalf("payload = %v", rest)
	}
	// Header checksum must verify.
	if Checksum(buf[:IPv4HeaderLen]) != 0 {
		t.Fatal("header checksum does not verify")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	if _, err := new(IPv4).DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, 20)
	buf[0] = 0x60 // version 6
	if _, err := new(IPv4).DecodeFromBytes(buf); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	buf[0] = 0x44 // IHL 4 words: invalid
	if _, err := new(IPv4).DecodeFromBytes(buf); err != ErrBadHeader {
		t.Errorf("ihl: %v", err)
	}
}

func TestUDPChecksumComputed(t *testing.T) {
	src, dst := MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2")
	u := UDP{SrcPort: 1234, DstPort: 5678}
	payload := []byte{9, 8, 7}
	buf := u.SerializeTo(nil, src, dst, payload)
	// Verify via pseudo-header fold: a correct packet folds to zero.
	partial := pseudoHeaderSum(src, dst, ProtoUDP, uint16(len(buf)))
	if foldChecksum(partial, buf) != 0 {
		t.Fatal("computed UDP checksum does not verify")
	}
}

func TestProbeSerializeVerifies(t *testing.T) {
	p := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 12, TTL: 6, Checksum: 0x1234,
	}
	raw := p.Serialize()
	if err := VerifyProbe(raw); err != nil {
		t.Fatalf("probe does not verify: %v", err)
	}
	pp, err := ParseProbe(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pp.FlowID != 12 || pp.Identity != 0x1234 || pp.IP.TTL != 6 {
		t.Fatalf("parsed %+v", pp)
	}
}

func TestProbeChecksumPinningProperty(t *testing.T) {
	// For any flow, TTL and target identity, the crafted probe must be a
	// valid UDP packet whose checksum field equals the identity: the Paris
	// technique's core trick.
	f := func(flow uint16, ttl uint8, target uint16, s, d uint32) bool {
		if ttl == 0 {
			ttl = 1
		}
		p := Probe{
			Src: Addr(s | 1), Dst: Addr(d | 2),
			FlowID: flow % (MaxFlowID + 1), TTL: ttl, Checksum: target,
		}
		raw := p.Serialize()
		if VerifyProbe(raw) != nil {
			return false
		}
		pp, err := ParseProbe(raw)
		if err != nil {
			return false
		}
		want := target
		if want == 0 {
			want = 1 // zero is never used as an identity
		}
		return pp.Identity == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeFlowKeyIgnoresIdentity(t *testing.T) {
	// Two probes differing only in TTL and identity must hash to the same
	// flow (the whole point of Paris traceroute).
	mk := func(ttl uint8, id uint16) uint64 {
		p := Probe{
			Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
			FlowID: 5, TTL: ttl, Checksum: id,
		}
		pp, err := ParseProbe(p.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		return pp.FlowKey()
	}
	if mk(3, 100) != mk(9, 4242) {
		t.Fatal("flow key varies with TTL/identity")
	}
	// And differing flow IDs must (essentially always) differ.
	p2 := Probe{Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"), FlowID: 6, TTL: 3, Checksum: 100}
	pp2, _ := ParseProbe(p2.Serialize())
	if pp2.FlowKey() == mk(3, 100) {
		t.Fatal("different flows collided")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	m := ICMP{Type: ICMPTypeEcho, ID: 77, Seq: 88, Payload: []byte("ping")}
	buf := m.SerializeTo(nil)
	var g ICMP
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if g.Type != ICMPTypeEcho || g.ID != 77 || g.Seq != 88 || string(g.Payload) != "ping" {
		t.Fatalf("decoded %+v", g)
	}
	if Checksum(buf) != 0 {
		t.Fatal("ICMP checksum does not verify")
	}
}

func TestICMPTimeExceededWithMPLS(t *testing.T) {
	quoted := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 3, TTL: 1, Checksum: 42,
	}.serializeForTest()
	entries := []MPLSLabelStackEntry{{Label: 0xABCDE, TC: 3, S: true, TTL: 64}}
	m := ICMP{
		Type: ICMPTypeTimeExceeded, Code: ICMPCodeTTLExceeded,
		Payload:    quoted,
		Extensions: EncodeMPLSExtension(entries),
	}
	buf := m.SerializeTo(nil)
	var g ICMP
	if err := g.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMPLSExtension(g.Extensions)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Label != 0xABCDE || got[0].TC != 3 || !got[0].S || got[0].TTL != 64 {
		t.Fatalf("mpls = %+v", got)
	}
	// The quoted datagram must survive (padded per RFC 4884).
	var q IPv4
	if _, err := q.DecodeFromBytes(g.Payload); err != nil {
		t.Fatalf("quoted datagram: %v", err)
	}
	if q.Dst != MustParseAddr("198.51.100.7") {
		t.Fatalf("quoted dst = %s", q.Dst)
	}
}

// serializeForTest avoids exporting a helper solely for tests.
func (p Probe) serializeForTest() []byte { return (&p).Serialize() }

func TestMPLSExtensionEmptyAndMalformed(t *testing.T) {
	if e := EncodeMPLSExtension(nil); e != nil {
		t.Fatal("empty encode must be nil")
	}
	if got, err := DecodeMPLSExtension(nil); err != nil || got != nil {
		t.Fatalf("nil decode: %v %v", got, err)
	}
	if _, err := DecodeMPLSExtension([]byte{0x20, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := DecodeMPLSExtension([]byte{0x10, 0, 0, 0}); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestMPLSExtensionPropertyRoundTrip(t *testing.T) {
	f := func(label uint32, tc, ttl uint8, s bool) bool {
		in := []MPLSLabelStackEntry{{Label: label & 0xfffff, TC: tc & 7, S: s, TTL: ttl}}
		out, err := DecodeMPLSExtension(EncodeMPLSExtension(in))
		return err == nil && len(out) == 1 && out[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseReplyTimeExceeded(t *testing.T) {
	// Build a complete reply the way the simulator does and ensure the
	// tracer-visible fields are recovered.
	quoted := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 9, TTL: 1, Checksum: 555,
	}
	icmp := ICMP{Type: ICMPTypeTimeExceeded, Payload: (&quoted).Serialize()}
	body := icmp.SerializeTo(nil)
	ip := IPv4{ID: 0x1111, TTL: 250, Protocol: ProtoICMP,
		Src: MustParseAddr("10.9.9.9"), Dst: MustParseAddr("192.0.2.1")}
	raw := ip.SerializeTo(nil, len(body))
	raw = append(raw, body...)

	r, err := ParseReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != ICMPTypeTimeExceeded || r.From != MustParseAddr("10.9.9.9") {
		t.Fatalf("reply %+v", r)
	}
	if r.IPID != 0x1111 || r.ReplyTTL != 250 {
		t.Fatalf("outer fields: %+v", r)
	}
	if !r.HasQuotedFlow || r.ProbeFlowID != 9 || r.ProbeIdentity != 555 {
		t.Fatalf("quoted fields: %+v", r)
	}
	if r.ProbeDst != MustParseAddr("198.51.100.7") {
		t.Fatalf("quoted dst: %s", r.ProbeDst)
	}
}

func TestParseReplyRejectsNonICMP(t *testing.T) {
	p := Probe{Src: MustParseAddr("1.1.1.1"), Dst: MustParseAddr("2.2.2.2"), FlowID: 0, TTL: 1, Checksum: 1}
	if _, err := ParseReply(p.Serialize()); err == nil {
		t.Fatal("UDP packet accepted as reply")
	}
}

func TestEchoProbeRoundTrip(t *testing.T) {
	e := EchoProbe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("10.0.0.5"),
		ID: 0x4d4c, Seq: 3, IPID: 99,
	}
	raw := e.Serialize()
	var ip IPv4
	body, err := ip.DecodeFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Protocol != ProtoICMP || ip.ID != 99 {
		t.Fatalf("ip: %+v", ip)
	}
	var m ICMP
	if err := m.DecodeFromBytes(body); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPTypeEcho || m.ID != 0x4d4c || m.Seq != 3 {
		t.Fatalf("icmp: %+v", m)
	}
}
