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
	"math/bits"
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

// ParseCanonicalAddr parses an address's canonical text and nothing
// else, for input a user typed. What ParseAddr refuses it refuses with
// ParseAddr's error; a spelling ParseAddr takes but AppendText never
// writes, such as "010.0.0.1" (whose 010 inet_aton reads as 8), it
// refuses as not canonical.
func ParseCanonicalAddr(s string) (Addr, error) {
	if a, n := ScanAddr(s); n > 0 && n == len(s) {
		return a, nil
	}
	if _, err := ParseAddr(s); err != nil {
		return 0, err
	}
	return 0, errNotCanonical(s)
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

// MarshalText renders a's canonical text, the dotted quad AppendText
// writes, so encoding/json writes an Addr as that quoted string.
func (a Addr) MarshalText() ([]byte, error) {
	return a.AppendText(make([]byte, 0, 15)), nil
}

// UnmarshalText parses a's canonical text and nothing else: four
// decimal octets of at most 255, without leading zeros. Unlike the
// lenient ParseAddr it refuses "010.0.0.1" or "10.0.00.1", so an
// address decoded from a file renders back to the bytes it was read
// from. A refused b leaves *a untouched.
func (a *Addr) UnmarshalText(b []byte) error {
	v, n := ScanAddr(b)
	if n == 0 || n != len(b) {
		return errNotCanonical(string(b))
	}
	*a = v
	return nil
}

func errNotCanonical(s string) error {
	return fmt.Errorf("packet: %q is not a canonical dotted quad", s)
}

// ScanAddr reads an address's canonical text, the bytes AppendText
// writes, at the start of s in one pass: four dot-separated decimal
// octets of at most 255, without leading zeros. It returns the address
// and the number of bytes read, or n == 0 when s does not start with a
// canonical address. Each octet's digit run is read whole, up to three
// digits, so what follows the address is the caller's to check:
// UnmarshalText requires the end of its input, a line parser the
// closing quote. The octet is read unrolled, digit by digit, rather
// than by a loop: its length varies from address to address, and the
// loop's exit was the routine's main cost.
func ScanAddr[T string | []byte](s T) (a Addr, n int) {
	i := 0
	for k := 0; ; k++ {
		if i >= len(s) || s[i]-'0' > 9 {
			return 0, 0
		}
		o := Addr(s[i] - '0')
		i++
		if i < len(s) && s[i]-'0' <= 9 {
			if o == 0 { // a leading zero
				return 0, 0
			}
			o = o*10 + Addr(s[i]-'0')
			i++
			if i < len(s) && s[i]-'0' <= 9 {
				o = o*10 + Addr(s[i]-'0')
				i++
				if o > 255 {
					return 0, 0
				}
			}
		}
		a = a<<8 | o
		if k == 3 {
			return a, i
		}
		if i >= len(s) || s[i] != '.' {
			return 0, 0
		}
		i++
	}
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
func Checksum(data []byte) uint16 { return foldChecksum(0, data) }

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
// Internet checksum. It adds data eight bytes per step: a big-endian
// 64-bit load is four 16-bit words weighted by powers of 2^16, and
// 2^16 ≡ 1 mod 0xffff, so the end-around-carry sum of the loads folds to
// the same ones' complement sum as RFC 1071's word-by-word loop. The
// tail's words go into one more load, an odd last byte as the high half
// of its word, as RFC 1071 pads it.
func foldChecksum(partial uint32, data []byte) uint16 {
	sum, carry := uint64(partial), uint64(0)
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), 0)
		sum += carry
		data = data[8:]
	}
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(data)) << 32
		data = data[4:]
	}
	if len(data) >= 2 {
		tail |= uint64(binary.BigEndian.Uint16(data)) << 16
		data = data[2:]
	}
	if len(data) == 1 {
		tail |= uint64(data[0]) << 8
	}
	sum, carry = bits.Add64(sum, tail, 0)
	sum += carry
	// Fold 64 → 32 bits with end-around carry, then 32 → 16 twice: the
	// first 16-bit fold leaves at most 0x1fffe, the second at most 0xffff.
	s, c := bits.Add32(uint32(sum), uint32(sum>>32), 0)
	s += c
	s = s&0xffff + s>>16
	s = s&0xffff + s>>16
	return ^uint16(s)
}

// IPv4 is an IPv4 header (without options; IHL is fixed at 5 words, which
// is what every traceroute implementation emits).
type IPv4 struct {
	TOS      byte
	TotalLen uint16 // as DecodeFromBytes read it; SerializeTo writes header plus payload
	ID       uint16
	Flags    byte // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      byte
	Protocol byte
	Src, Dst Addr
}

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// SerializeTo appends the header bytes for a payload of length payloadLen.
func (h *IPv4) SerializeTo(b []byte, payloadLen int) []byte {
	total := IPv4HeaderLen + payloadLen
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
	binary.BigEndian.PutUint16(b[start+10:], Checksum(b[start:start+IPv4HeaderLen]))
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
	Length           uint16 // as DecodeFromBytes read it; SerializeTo writes header plus payload
	Checksum         uint16 // computed by SerializeTo when zero
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// SerializeTo appends the UDP header followed by payload. If h.Checksum is
// zero it computes the real checksum over the pseudo-header; a non-zero
// value is emitted verbatim, which is how Paris traceroute pins the flow
// identifier (see FlowID).
func (h *UDP) SerializeTo(b []byte, src, dst Addr, payload []byte) []byte {
	length := UDPHeaderLen + len(payload)
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
	withExt := isError && len(m.Extensions) > 0
	padded := len(m.Payload)
	if withExt {
		if padded < rfc4884MinQuoted {
			padded = rfc4884MinQuoted
		}
		// Round up to a 32-bit boundary as the length field is in words.
		padded = (padded + 3) &^ 3
		word2[1] = byte(padded / 4) // RFC 4884 length field
		m.origDatagramWords = word2[1]
	} else if !isError {
		binary.BigEndian.PutUint16(word2[0:], m.ID)
		binary.BigEndian.PutUint16(word2[2:], m.Seq)
	}
	b = append(b, m.Type, m.Code, 0, 0)
	b = append(b, word2[:]...)
	b = append(b, m.Payload...)
	if withExt {
		var zeros [rfc4884MinQuoted]byte // the padding never exceeds the minimum
		b = append(b, zeros[:padded-len(m.Payload)]...)
		b = append(b, m.Extensions...)
	}
	binary.BigEndian.PutUint16(b[start+2:], Checksum(b[start:]))
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

// AppendMPLSExtension appends the raw RFC 4884 extension structure for
// the label stack to b — the extension header plus one MPLS label stack
// object (class 1, c-type 1) — and returns the extended slice, suitable
// for ICMP.Extensions. An empty stack appends nothing. It allocates
// nothing when b has capacity.
func AppendMPLSExtension(b []byte, entries ...MPLSLabelStackEntry) []byte {
	if len(entries) == 0 {
		return b
	}
	start := len(b)
	objLen := 4 + 4*len(entries)
	// Extension header: version 2, reserved, checksum (computed below).
	b = append(b, 0x20, 0, 0, 0)
	// Object header: length, class-num 1 (MPLS), c-type 1 (incoming stack).
	b = append(b, byte(objLen>>8), byte(objLen), 1, 1)
	for _, e := range entries {
		w := e.Label<<12 | uint32(e.TC)<<9 | uint32(e.TTL)
		if e.S {
			w |= 1 << 8
		}
		b = append(b, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	binary.BigEndian.PutUint16(b[start+2:], Checksum(b[start:]))
	return b
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
