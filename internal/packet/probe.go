package packet

import (
	"encoding/binary"
	"fmt"
)

// Paris traceroute probe construction.
//
// A per-flow load balancer classifies packets on the 5-tuple
// (src addr, dst addr, protocol, src port, dst port). The Paris technique
// therefore keeps all five fields constant for probes that must follow one
// flow, and encodes the probe identity — which classic traceroute put in
// the destination port, perturbing the flow — in fields that do not enter
// the flow hash but are echoed back inside the ICMP error quote:
//
//   - the UDP checksum, pinned to a chosen value by adjusting two bytes of
//     payload so the packet still checksums correctly; and
//   - the IP ID, set to the same identity value.
//
// The Multipath Detection Algorithm explores different flows by varying the
// UDP source port, one flow identifier per source port.

// DefaultDstPort is the classic traceroute destination port base. Keeping a
// single constant destination port (rather than the incrementing ports of
// classic traceroute) is the essence of the Paris technique.
const DefaultDstPort = 33434

// DefaultSrcPortBase is the lowest UDP source port used for flow IDs.
// Flow f is carried in source port DefaultSrcPortBase+f.
const DefaultSrcPortBase = 33456

// MaxFlowID bounds the flow identifier space so that source ports stay
// below 65536.
const MaxFlowID = 65535 - DefaultSrcPortBase

// Probe describes one traceroute probe to be serialized.
type Probe struct {
	Src, Dst Addr
	FlowID   uint16 // selects the UDP source port
	TTL      byte
	Checksum uint16 // probe identity, pinned into the UDP checksum and IP ID
}

// probePayloadLen is the probe payload size: two bytes used to pin the UDP
// checksum.
const probePayloadLen = 2

// ProbeLen is the wire length of a serialized traceroute probe.
const ProbeLen = IPv4HeaderLen + UDPHeaderLen + probePayloadLen

// AppendTo appends the full IPv4+UDP probe packet to buf and returns the
// extended slice, so a hot path can reuse one buffer across probes
// instead of allocating per probe.
func (p *Probe) AppendTo(buf []byte) []byte {
	if p.Checksum == 0 {
		// A UDP checksum of zero means "not computed"; never use it as an
		// identity value.
		p.Checksum = 1
	}
	udp := UDP{
		SrcPort:  DefaultSrcPortBase + p.FlowID,
		DstPort:  DefaultDstPort,
		Length:   UDPHeaderLen + probePayloadLen,
		Checksum: p.Checksum,
	}
	var payload [probePayloadLen]byte
	binary.BigEndian.PutUint16(payload[:], pinPayloadWord(p.Src, p.Dst, &udp, p.Checksum))
	ip := IPv4{
		ID:       p.Checksum,
		TTL:      p.TTL,
		Protocol: ProtoUDP,
		Src:      p.Src,
		Dst:      p.Dst,
	}
	buf = ip.SerializeTo(buf, UDPHeaderLen+probePayloadLen)
	buf = udp.SerializeTo(buf, p.Src, p.Dst, payload[:])
	return buf
}

// pinPayloadWord computes the two payload bytes that make the UDP checksum
// field equal target while remaining a valid checksum.
func pinPayloadWord(src, dst Addr, udp *UDP, target uint16) uint16 {
	// The ones-complement sum over pseudo-header + UDP header (with the
	// checksum field set to target) + payload must equal 0xffff for the
	// packet to verify. Compute the sum S with a zero payload word, then
	// choose the payload word P so that S + P ≡ 0xffff (mod 0xffff).
	length := uint16(UDPHeaderLen + probePayloadLen)
	sum := pseudoHeaderSum(src, dst, ProtoUDP, length)
	sum += uint32(udp.SrcPort)
	sum += uint32(udp.DstPort)
	sum += uint32(length)
	sum += uint32(target)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	// A zero word is fine: it contributes nothing and the sum already
	// folds to 0xffff.
	return 0xffff - uint16(sum)
}

// ParsedProbe is the view of a probe the simulator (or a router) sees.
type ParsedProbe struct {
	IP     IPv4
	UDP    UDP
	FlowID uint16
	// Identity is the probe identity value (the pinned UDP checksum).
	Identity uint16
}

// ParseProbeInto parses raw probe bytes into pp, overwriting every field,
// so one ParsedProbe can be reused across probes without allocating. On
// error pp's contents are unspecified.
func ParseProbeInto(pp *ParsedProbe, raw []byte) error {
	*pp = ParsedProbe{}
	payload, err := pp.IP.DecodeFromBytes(raw)
	if err != nil {
		return err
	}
	if pp.IP.Protocol != ProtoUDP {
		return fmt.Errorf("packet: probe protocol %d, want UDP", pp.IP.Protocol)
	}
	if _, err := pp.UDP.DecodeFromBytes(payload); err != nil {
		return err
	}
	if pp.UDP.SrcPort < DefaultSrcPortBase {
		return fmt.Errorf("packet: source port %d below flow base", pp.UDP.SrcPort)
	}
	pp.FlowID = pp.UDP.SrcPort - DefaultSrcPortBase
	pp.Identity = pp.UDP.Checksum
	return nil
}

// FlowKey returns the value a per-flow load balancer hashes: a canonical
// encoding of the probe's 5-tuple. Note the probe identity (checksum, IP
// ID, TTL) is deliberately absent.
func (pp *ParsedProbe) FlowKey() uint64 {
	return uint64(pp.IP.Src)<<32 ^ uint64(pp.IP.Dst) ^
		uint64(pp.UDP.SrcPort)<<48 ^ uint64(pp.UDP.DstPort)<<16 ^ uint64(ProtoUDP)<<40
}

// Reply is the parsed form of an ICMP response to a probe, carrying
// everything the tracer and the alias resolver consume.
type Reply struct {
	// From is the address the reply came from (the outer IP source): the
	// responding interface.
	From Addr
	// Type and Code are the ICMP type and code.
	Type, Code byte
	// IPID is the outer IP header's identification field: the responding
	// router's counter sample used by the Monotonic Bounds Test.
	IPID uint16
	// ReplyTTL is the outer IP header's TTL as received, used by Network
	// Fingerprinting to infer the router's initial TTL.
	ReplyTTL byte
	// MPLS holds the label stack from the ICMP extension, if any.
	MPLS []MPLSLabelStackEntry

	// Fields recovered from the quoted probe (error messages) or from the
	// echo header (echo replies):

	// ProbeIdentity is the quoted probe's identity value, 0 if unavailable.
	ProbeIdentity uint16
	// ProbeFlowID is the quoted probe's flow ID; valid only when
	// HasQuotedFlow is true.
	ProbeFlowID   uint16
	HasQuotedFlow bool
	// ProbeDst is the quoted probe's destination, 0 if unavailable.
	ProbeDst Addr
	// EchoID and EchoSeq are set for echo replies.
	EchoID, EchoSeq uint16
}

// IsPortUnreachable reports whether the reply indicates the probe reached
// the destination.
func (r *Reply) IsPortUnreachable() bool {
	return r.Type == ICMPTypeDestUnreachable && r.Code == ICMPCodePortUnreachable
}

// IsEchoReply reports whether the reply answers a direct (ping-style) probe.
func (r *Reply) IsEchoReply() bool { return r.Type == ICMPTypeEchoReply }

// ParseReplyInto parses raw ICMP reply bytes into r, overwriting every
// field, so one Reply can be reused across replies without allocating (the
// MPLS stack, when present, is still freshly allocated: replies carrying
// extensions are rare and the slice may outlive the next parse). On error
// r's contents are unspecified. The parsed Reply holds no reference to
// raw, so raw may be a transport-owned scratch buffer.
func ParseReplyInto(r *Reply, raw []byte) error {
	*r = Reply{}
	var outer IPv4
	body, err := outer.DecodeFromBytes(raw)
	if err != nil {
		return err
	}
	if outer.Protocol != ProtoICMP {
		return fmt.Errorf("packet: reply protocol %d, want ICMP", outer.Protocol)
	}
	var icmp ICMP
	if err := icmp.DecodeFromBytes(body); err != nil {
		return err
	}
	r.From = outer.Src
	r.Type = icmp.Type
	r.Code = icmp.Code
	r.IPID = outer.ID
	r.ReplyTTL = outer.TTL
	switch icmp.Type {
	case ICMPTypeEchoReply:
		r.EchoID, r.EchoSeq = icmp.ID, icmp.Seq
	case ICMPTypeTimeExceeded, ICMPTypeDestUnreachable:
		if mpls, err := DecodeMPLSExtension(icmp.Extensions); err == nil {
			r.MPLS = mpls
		}
		var quoted IPv4
		qPayload, err := quoted.DecodeFromBytes(icmp.Payload)
		if err != nil {
			break // tolerate unparseable quotes: reply still attributes an address
		}
		r.ProbeDst = quoted.Dst
		if quoted.Protocol == ProtoUDP && len(qPayload) >= UDPHeaderLen {
			var udp UDP
			if _, err := udp.DecodeFromBytes(qPayload); err == nil {
				r.ProbeIdentity = udp.Checksum
				if udp.SrcPort >= DefaultSrcPortBase {
					r.ProbeFlowID = udp.SrcPort - DefaultSrcPortBase
					r.HasQuotedFlow = true
				}
			}
		}
	}
	return nil
}

// EchoProbe describes a direct (ping-style) probe used by alias resolution.
type EchoProbe struct {
	Src, Dst Addr
	ID, Seq  uint16
	IPID     uint16
}

// AppendTo appends the full IPv4+ICMP Echo packet to buf and returns the
// extended slice.
func (e *EchoProbe) AppendTo(buf []byte) []byte {
	ip := IPv4{
		ID:       e.IPID,
		TTL:      64,
		Protocol: ProtoICMP,
		Src:      e.Src,
		Dst:      e.Dst,
	}
	buf = ip.SerializeTo(buf, ICMPHeaderLen)
	icmp := ICMP{Type: ICMPTypeEcho, ID: e.ID, Seq: e.Seq}
	return icmp.SerializeTo(buf)
}
