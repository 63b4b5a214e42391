// Package packet implements the wire formats a Paris traceroute speaks:
// IPv4, UDP, ICMP (Time Exceeded, Destination Unreachable, Echo /
// Echo Reply), and the ICMP multi-part extension structure that carries
// MPLS label stacks (RFC 4884 + RFC 4950).
//
// The design follows the gopacket idiom: each layer is a struct with
// exported fields, a SerializeTo that appends wire bytes, and a
// DecodeFromBytes that parses them. Probes and replies cross the
// tracer/simulator boundary as real wire bytes, so the tracer exercises the
// same parsing code paths it would against a kernel raw socket.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is an IPv4 address in host-comparable form. The zero value is the
// unspecified address 0.0.0.0.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 string.
func ParseAddr(s string) (Addr, error) {
	var parts [4]int
	n := 0
	cur := -1
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch >= '0' && ch <= '9':
			if cur < 0 {
				cur = 0
			}
			cur = cur*10 + int(ch-'0')
			if cur > 255 {
				return 0, fmt.Errorf("packet: octet out of range in %q", s)
			}
		case ch == '.':
			if cur < 0 || n >= 3 {
				return 0, fmt.Errorf("packet: malformed address %q", s)
			}
			parts[n] = cur
			n++
			cur = -1
		default:
			return 0, fmt.Errorf("packet: invalid character in address %q", s)
		}
	}
	if cur < 0 || n != 3 {
		return 0, fmt.Errorf("packet: malformed address %q", s)
	}
	parts[3] = cur
	return AddrFrom4(byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])), nil
}

// MustParseAddr is ParseAddr that panics on error, for use in tests and
// static tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// AppendText appends the dotted-quad form of a to b and returns the
// extended slice, allocation-free when b has capacity. This is the
// encode-side counterpart of ParseAddr for hot paths (snapshot
// encoding renders millions of addresses); String is a convenience
// wrapper over it.
func (a Addr) AppendText(b []byte) []byte {
	for i := 3; i >= 0; i-- {
		oct := byte(a >> (8 * i))
		if oct >= 100 {
			b = append(b, '0'+oct/100)
		}
		if oct >= 10 {
			b = append(b, '0'+(oct/10)%10)
		}
		b = append(b, '0'+oct%10)
		if i > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendText(buf[:0]))
}

// IP protocol numbers used by the tracer.
const (
	ProtoICMP = 1
	ProtoUDP  = 17
)

// ICMP types and codes used by the tracer.
const (
	ICMPTypeEchoReply       = 0
	ICMPTypeDestUnreachable = 3
	ICMPTypeEcho            = 8
	ICMPTypeTimeExceeded    = 11

	ICMPCodePortUnreachable = 3
	ICMPCodeTTLExceeded     = 0
)

// Errors returned by decoders.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrBadVersion = errors.New("packet: not IPv4")
	ErrBadHeader  = errors.New("packet: malformed header")
)

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the partial checksum of the IPv4 pseudo-header
// used by UDP.
func pseudoHeaderSum(src, dst Addr, proto byte, length uint16) uint32 {
	var sum uint32
	sum += uint32(src >> 16)
	sum += uint32(src & 0xffff)
	sum += uint32(dst >> 16)
	sum += uint32(dst & 0xffff)
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// foldChecksum folds a partial 32-bit sum plus data bytes into a final
// Internet checksum.
func foldChecksum(partial uint32, data []byte) uint16 {
	sum := partial
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// IPv4 is an IPv4 header (without options; IHL is fixed at 5 words, which
// is what every traceroute implementation emits).
type IPv4 struct {
	TOS      byte
	TotalLen uint16 // filled by SerializeTo when zero
	ID       uint16
	Flags    byte // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      byte
	Protocol byte
	Checksum uint16 // filled by SerializeTo
	Src, Dst Addr
}

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// SerializeTo appends the header bytes for a payload of length payloadLen.
func (h *IPv4) SerializeTo(b []byte, payloadLen int) []byte {
	total := IPv4HeaderLen + payloadLen
	if h.TotalLen != 0 {
		total = int(h.TotalLen)
	}
	start := len(b)
	b = append(b,
		0x45, h.TOS,
		byte(total>>8), byte(total),
		byte(h.ID>>8), byte(h.ID),
		byte(h.Flags<<5)|byte(h.FragOff>>8&0x1f), byte(h.FragOff),
		h.TTL, h.Protocol,
		0, 0, // checksum placeholder
		byte(h.Src>>24), byte(h.Src>>16), byte(h.Src>>8), byte(h.Src),
		byte(h.Dst>>24), byte(h.Dst>>16), byte(h.Dst>>8), byte(h.Dst),
	)
	ck := Checksum(b[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:], ck)
	h.Checksum = ck
	return b
}

// DecodeFromBytes parses an IPv4 header from data and returns the payload
// slice (aliasing data).
func (h *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return nil, ErrBadHeader
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	frag := binary.BigEndian.Uint16(data[6:])
	h.Flags = byte(frag >> 13)
	h.FragOff = frag & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.Src = Addr(binary.BigEndian.Uint32(data[12:]))
	h.Dst = Addr(binary.BigEndian.Uint32(data[16:]))
	end := int(h.TotalLen)
	if end > len(data) || end < ihl {
		// Tolerate captures that truncate the quoted payload, as ICMP
		// errors are allowed to do.
		end = len(data)
	}
	return data[ihl:end], nil
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // filled by SerializeTo when zero
	Checksum         uint16 // filled by SerializeTo when zero
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// SerializeTo appends the UDP header followed by payload. If h.Checksum is
// zero it computes the real checksum over the pseudo-header; a non-zero
// value is emitted verbatim, which is how Paris traceroute pins the flow
// identifier (see FlowID).
func (h *UDP) SerializeTo(b []byte, src, dst Addr, payload []byte) []byte {
	length := UDPHeaderLen + len(payload)
	if h.Length != 0 {
		length = int(h.Length)
	}
	start := len(b)
	b = append(b,
		byte(h.SrcPort>>8), byte(h.SrcPort),
		byte(h.DstPort>>8), byte(h.DstPort),
		byte(length>>8), byte(length),
		byte(h.Checksum>>8), byte(h.Checksum),
	)
	b = append(b, payload...)
	if h.Checksum == 0 {
		partial := pseudoHeaderSum(src, dst, ProtoUDP, uint16(length))
		ck := foldChecksum(partial, b[start:])
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(b[start+6:], ck)
		h.Checksum = ck
	}
	return b
}

// DecodeFromBytes parses a UDP header and returns the payload slice.
func (h *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(data)
	h.DstPort = binary.BigEndian.Uint16(data[2:])
	h.Length = binary.BigEndian.Uint16(data[4:])
	h.Checksum = binary.BigEndian.Uint16(data[6:])
	end := int(h.Length)
	if end > len(data) || end < UDPHeaderLen {
		end = len(data)
	}
	return data[UDPHeaderLen:end], nil
}

// ICMP is an ICMP message. For Echo/EchoReply, ID and Seq are meaningful.
// For error messages (Time Exceeded, Destination Unreachable), Payload
// holds the quoted datagram and Extensions any RFC 4884 extension block.
type ICMP struct {
	Type, Code byte
	Checksum   uint16 // filled by SerializeTo
	ID, Seq    uint16 // echo only
	// Payload is the quoted original datagram for error messages, or the
	// echo payload for echo messages.
	Payload []byte
	// Extensions is the raw RFC 4884 extension structure, if present.
	Extensions []byte
	// origDatagramWords is the RFC 4884 "length" field value observed or to
	// be emitted (in 32-bit words) when Extensions is non-empty.
	origDatagramWords byte
}

// ICMPHeaderLen is the length of the fixed ICMP header.
const ICMPHeaderLen = 8

// rfc4884MinQuoted is the minimum quoted-datagram length (in bytes) when an
// extension structure is appended: 128 bytes per RFC 4884 for ICMP v4
// Time Exceeded / Destination Unreachable.
const rfc4884MinQuoted = 128

// SerializeTo appends the ICMP message. Error messages with Extensions are
// emitted in RFC 4884 compliant form: the quoted datagram is zero-padded to
// 128 bytes and the length field set accordingly.
func (m *ICMP) SerializeTo(b []byte) []byte {
	start := len(b)
	var word2 [4]byte
	isError := m.Type == ICMPTypeTimeExceeded || m.Type == ICMPTypeDestUnreachable
	quoted := m.Payload
	if isError && len(m.Extensions) > 0 {
		padded := len(quoted)
		if padded < rfc4884MinQuoted {
			padded = rfc4884MinQuoted
		}
		// Round up to a 32-bit boundary as the length field is in words.
		padded = (padded + 3) &^ 3
		word2[1] = byte(padded / 4) // RFC 4884 length field
		m.origDatagramWords = word2[1]
		q := make([]byte, padded)
		copy(q, quoted)
		quoted = q
	} else if !isError {
		binary.BigEndian.PutUint16(word2[0:], m.ID)
		binary.BigEndian.PutUint16(word2[2:], m.Seq)
	}
	b = append(b, m.Type, m.Code, 0, 0)
	b = append(b, word2[:]...)
	b = append(b, quoted...)
	if isError && len(m.Extensions) > 0 {
		b = append(b, m.Extensions...)
	}
	ck := Checksum(b[start:])
	binary.BigEndian.PutUint16(b[start+2:], ck)
	m.Checksum = ck
	return b
}

// DecodeFromBytes parses an ICMP message, separating the RFC 4884 extension
// structure from the quoted datagram when the length field indicates one.
func (m *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPHeaderLen {
		return ErrTruncated
	}
	m.Type = data[0]
	m.Code = data[1]
	m.Checksum = binary.BigEndian.Uint16(data[2:])
	body := data[ICMPHeaderLen:]
	switch m.Type {
	case ICMPTypeEcho, ICMPTypeEchoReply:
		m.ID = binary.BigEndian.Uint16(data[4:])
		m.Seq = binary.BigEndian.Uint16(data[6:])
		m.Payload = body
		m.Extensions = nil
	case ICMPTypeTimeExceeded, ICMPTypeDestUnreachable:
		m.origDatagramWords = data[5]
		quotedLen := int(m.origDatagramWords) * 4
		if quotedLen > 0 && quotedLen <= len(body) {
			m.Payload = body[:quotedLen]
			m.Extensions = body[quotedLen:]
		} else {
			m.Payload = body
			m.Extensions = nil
		}
	default:
		m.Payload = body
		m.Extensions = nil
	}
	return nil
}

// MPLSLabelStackEntry is one entry of an MPLS label stack as carried in an
// ICMP extension object (RFC 4950).
type MPLSLabelStackEntry struct {
	Label uint32 // 20 bits
	TC    byte   // 3 bits (formerly EXP)
	S     bool   // bottom of stack
	TTL   byte
}

// mplsExtensionHeader builds the RFC 4884 extension header plus one MPLS
// label stack object (class 1, c-type 1) containing the given entries.
func mplsExtensionHeader(entries []MPLSLabelStackEntry) []byte {
	objLen := 4 + 4*len(entries)
	buf := make([]byte, 0, 4+objLen)
	// Extension header: version 2, reserved, checksum (computed below).
	buf = append(buf, 0x20, 0, 0, 0)
	// Object header: length, class-num 1 (MPLS), c-type 1 (incoming stack).
	buf = append(buf, byte(objLen>>8), byte(objLen), 1, 1)
	for _, e := range entries {
		w := e.Label<<12 | uint32(e.TC)<<9 | uint32(e.TTL)
		if e.S {
			w |= 1 << 8
		}
		buf = append(buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	ck := Checksum(buf)
	binary.BigEndian.PutUint16(buf[2:], ck)
	return buf
}

// EncodeMPLSExtension returns the raw extension bytes for the label stack,
// suitable for assigning to ICMP.Extensions.
func EncodeMPLSExtension(entries []MPLSLabelStackEntry) []byte {
	if len(entries) == 0 {
		return nil
	}
	return mplsExtensionHeader(entries)
}

// DecodeMPLSExtension extracts MPLS label stack entries from a raw RFC 4884
// extension structure. It returns nil if the structure carries no MPLS
// object. Malformed structures yield an error.
func DecodeMPLSExtension(ext []byte) ([]MPLSLabelStackEntry, error) {
	if len(ext) == 0 {
		return nil, nil
	}
	if len(ext) < 4 {
		return nil, ErrTruncated
	}
	if ext[0]>>4 != 2 {
		return nil, fmt.Errorf("packet: unsupported ICMP extension version %d", ext[0]>>4)
	}
	body := ext[4:]
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, ErrTruncated
		}
		objLen := int(binary.BigEndian.Uint16(body))
		class, ctype := body[2], body[3]
		if objLen < 4 || objLen > len(body) {
			return nil, ErrBadHeader
		}
		if class == 1 && ctype == 1 {
			payload := body[4:objLen]
			if len(payload)%4 != 0 {
				return nil, ErrBadHeader
			}
			entries := make([]MPLSLabelStackEntry, 0, len(payload)/4)
			for i := 0; i < len(payload); i += 4 {
				w := binary.BigEndian.Uint32(payload[i:])
				entries = append(entries, MPLSLabelStackEntry{
					Label: w >> 12,
					TC:    byte(w >> 9 & 0x7),
					S:     w>>8&1 == 1,
					TTL:   byte(w),
				})
			}
			return entries, nil
		}
		body = body[objLen:]
	}
	return nil, nil
}
