package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Round-trip agreement between the allocating codecs below and the
// append/into codecs of the zero-allocation hot path. The allocating forms
// are test oracles only: the product runs on the Into/AppendTo forms, and
// the fuzz targets hold the two families byte-for-byte and
// field-for-field interchangeable.

// EchoLen is the wire length of a serialized echo probe.
const EchoLen = IPv4HeaderLen + ICMPHeaderLen

// ErrChecksum is VerifyProbe's verdict on a probe whose UDP checksum
// does not verify.
var ErrChecksum = errors.New("packet: bad checksum")

// Serialize builds the full IPv4+UDP probe packet.
func (p *Probe) Serialize() []byte {
	return p.AppendTo(make([]byte, 0, ProbeLen))
}

// Serialize builds the full IPv4+ICMP Echo packet.
func (e *EchoProbe) Serialize() []byte {
	return e.AppendTo(make([]byte, 0, EchoLen))
}

// ParseProbe parses raw probe bytes.
func ParseProbe(raw []byte) (*ParsedProbe, error) {
	var pp ParsedProbe
	if err := ParseProbeInto(&pp, raw); err != nil {
		return nil, err
	}
	return &pp, nil
}

// ParseReply parses raw ICMP reply bytes.
func ParseReply(raw []byte) (*Reply, error) {
	r := new(Reply)
	if err := ParseReplyInto(r, raw); err != nil {
		return nil, err
	}
	return r, nil
}

// VerifyProbe checks that raw is a well-formed probe whose UDP checksum
// verifies.
func VerifyProbe(raw []byte) error {
	var ip IPv4
	payload, err := ip.DecodeFromBytes(raw)
	if err != nil {
		return err
	}
	if ip.Protocol != ProtoUDP {
		return fmt.Errorf("packet: probe protocol %d, want UDP", ip.Protocol)
	}
	if len(payload) < UDPHeaderLen {
		return ErrTruncated
	}
	length := binary.BigEndian.Uint16(payload[4:])
	if int(length) > len(payload) {
		return ErrTruncated
	}
	partial := pseudoHeaderSum(ip.Src, ip.Dst, ProtoUDP, length)
	if foldChecksum(partial, payload[:length]) != 0 {
		return ErrChecksum
	}
	return nil
}

// dirtyReply returns a Reply with every field non-zero, so a missing
// reset in ParseReplyInto shows up as a stale value.
func dirtyReply() Reply {
	return Reply{
		From: 0xdeadbeef, Type: 0xaa, Code: 0xbb, IPID: 0xcccc, ReplyTTL: 0xdd,
		MPLS:          []MPLSLabelStackEntry{{Label: 1, TC: 2, S: true, TTL: 3}},
		ProbeIdentity: 0xeeee, ProbeFlowID: 0xff00, HasQuotedFlow: true,
		ProbeDst: 0x01020304, EchoID: 0x1111, EchoSeq: 0x2222,
	}
}

func dirtyParsedProbe() ParsedProbe {
	return ParsedProbe{
		IP:     IPv4{TOS: 1, TotalLen: 2, ID: 3, TTL: 4, Protocol: 5, Src: 6, Dst: 7},
		UDP:    UDP{SrcPort: 8, DstPort: 9, Length: 10, Checksum: 11},
		FlowID: 12, Identity: 13,
	}
}

// FuzzParseProbe feeds arbitrary bytes to both probe parsers and requires
// identical outcomes; on success it additionally re-serializes the parsed
// identity through both Serialize and AppendTo and requires identical
// bytes.
func FuzzParseProbe(f *testing.F) {
	valid := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 3, TTL: 5, Checksum: 42,
	}
	f.Add(valid.Serialize())
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add(valid.Serialize()[:IPv4HeaderLen+3])
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy, legacyErr := ParseProbe(data)
		pp := dirtyParsedProbe()
		err := ParseProbeInto(&pp, data)
		if (legacyErr == nil) != (err == nil) {
			t.Fatalf("parser disagreement: legacy err %v, into err %v", legacyErr, err)
		}
		if legacyErr != nil {
			return
		}
		if *legacy != pp {
			t.Fatalf("parsed probe mismatch:\nlegacy %+v\ninto   %+v", *legacy, pp)
		}
		rebuilt := Probe{
			Src: pp.IP.Src, Dst: pp.IP.Dst,
			FlowID: pp.FlowID, TTL: pp.IP.TTL, Checksum: pp.Identity,
		}
		appended := rebuilt.AppendTo(nil)
		if serialized := rebuilt.Serialize(); !bytes.Equal(serialized, appended) {
			t.Fatalf("Serialize/AppendTo mismatch:\n%x\n%x", serialized, appended)
		}
		// Appending after a prefix must not disturb the emitted bytes.
		withPrefix := rebuilt.AppendTo([]byte{0xde, 0xad})
		if !bytes.Equal(withPrefix[2:], appended) {
			t.Fatalf("AppendTo disturbed by prefix:\n%x\n%x", withPrefix[2:], appended)
		}
	})
}

// FuzzParseReply feeds arbitrary bytes to both reply parsers and requires
// identical outcomes, including full field resets on the reused Reply.
func FuzzParseReply(f *testing.F) {
	pr := Probe{
		Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("198.51.100.7"),
		FlowID: 3, TTL: 1, Checksum: 42,
	}
	icmp := ICMP{
		Type: ICMPTypeTimeExceeded, Payload: pr.Serialize(),
		Extensions: EncodeMPLSExtension([]MPLSLabelStackEntry{{Label: 9, S: true, TTL: 1}}),
	}
	body := icmp.SerializeTo(nil)
	ip := IPv4{ID: 1, TTL: 64, Protocol: ProtoICMP,
		Src: MustParseAddr("10.0.0.1"), Dst: MustParseAddr("192.0.2.1")}
	reply := ip.SerializeTo(nil, len(body))
	reply = append(reply, body...)
	f.Add(reply)
	f.Add([]byte{})
	f.Add(reply[:IPv4HeaderLen+4])
	echo := EchoProbe{Src: 1, Dst: 2, ID: 3, Seq: 4, IPID: 5}
	f.Add(echo.Serialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy, legacyErr := ParseReply(data)
		r := dirtyReply()
		err := ParseReplyInto(&r, data)
		if (legacyErr == nil) != (err == nil) {
			t.Fatalf("parser disagreement: legacy err %v, into err %v", legacyErr, err)
		}
		if legacyErr != nil {
			return
		}
		if !reflect.DeepEqual(*legacy, r) {
			t.Fatalf("parsed reply mismatch:\nlegacy %+v\ninto   %+v", *legacy, r)
		}
	})
}

// TestEchoAppendToMatchesSerialize pins the echo probe codec pair.
func TestEchoAppendToMatchesSerialize(t *testing.T) {
	for seq := uint16(0); seq < 300; seq += 37 {
		e := EchoProbe{
			Src: MustParseAddr("192.0.2.1"), Dst: MustParseAddr("10.0.0.9"),
			ID: 0x4d4c, Seq: seq, IPID: seq ^ 0x5555,
		}
		want := e.Serialize()
		got := e.AppendTo(nil)
		if !bytes.Equal(want, got) {
			t.Fatalf("seq %d: Serialize %x != AppendTo %x", seq, want, got)
		}
		if len(want) != EchoLen {
			t.Fatalf("echo length %d, want EchoLen=%d", len(want), EchoLen)
		}
	}
}

// TestProbeLenMatchesWire pins the exported wire-length constant.
func TestProbeLenMatchesWire(t *testing.T) {
	p := Probe{Src: 1, Dst: 2, FlowID: 3, TTL: 4, Checksum: 5}
	if got := len(p.Serialize()); got != ProbeLen {
		t.Fatalf("probe wire length %d, want ProbeLen=%d", got, ProbeLen)
	}
}

// TestParseIntoReusesWithoutLeak: parsing a reply without an MPLS stack
// into a Reply that previously carried one must clear the stack.
func TestParseIntoReusesWithoutLeak(t *testing.T) {
	e := EchoProbe{Src: 1, Dst: 2, ID: 3, Seq: 4, IPID: 5}
	probeRaw := e.Serialize()
	icmp := ICMP{Type: ICMPTypeEchoReply, ID: 3, Seq: 4}
	body := icmp.SerializeTo(nil)
	ip := IPv4{TTL: 60, Protocol: ProtoICMP, Src: 2, Dst: 1}
	raw := ip.SerializeTo(nil, len(body))
	raw = append(raw, body...)
	r := dirtyReply()
	if err := ParseReplyInto(&r, raw); err != nil {
		t.Fatal(err)
	}
	if r.MPLS != nil || r.HasQuotedFlow || r.ProbeIdentity != 0 {
		t.Fatalf("stale fields survived reuse: %+v", r)
	}
	if !r.IsEchoReply() || r.EchoID != 3 || r.EchoSeq != 4 {
		t.Fatalf("echo fields wrong: %+v", r)
	}
	_ = probeRaw
}
