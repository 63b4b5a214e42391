package traceio

import (
	"encoding/json"
	"strconv"
	"strings"

	"mmlpt/internal/packet"
)

// Hand-written codecs for the snapshot's repeated line kinds. Node
// lines {"addr":…,"seen":[[p,h],…],"succ":[…],"router":…} and router
// lines {"addrs":[…]}, nearly all of a snapshot, are encoded and parsed
// by hand; pair lines {"pair":i,"src":…,"dst":…} and diamond lines
// {"div":…,"conv":…,"count":c,"pairs":[…],"max_width":w,"max_length":l},
// which a reader decodes whole at open, are parsed by hand and written
// by encoding/json. The encoders write exactly the bytes json.Marshal
// writes (plus the '\n'); the parsers accept exactly json.Marshal's
// bytes and report anything else as not canonical, so the caller hands
// that line to encoding/json and the reflection decoder stays the one
// authority on what a line means. FuzzAtlasLines holds both halves to
// encoding/json.

// plainJSON[c] reports whether json.Marshal writes byte c of a string
// as itself: printable ASCII other than the quote, the backslash and
// the three bytes it escapes for HTML.
var plainJSON = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// plainJSONString reports whether every byte of s is plain.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			return false
		}
	}
	return true
}

// appendJSONString appends s as json.Marshal renders it: verbatim
// between quotes when every byte is plain, through json.Marshal when
// any byte needs an escape (or is not ASCII).
func appendJSONString(buf []byte, s string) []byte {
	if !plainJSONString(s) {
		b, _ := json.Marshal(s) // a string always marshals
		return append(buf, b...)
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendAddr appends a as json.Marshal renders a packet.Addr: its
// canonical text, quoted.
func appendAddr(buf []byte, a packet.Addr) []byte {
	return append(a.AppendText(append(buf, '"')), '"')
}

// appendAddrs appends as as json.Marshal renders a []packet.Addr: null
// for nil, [] for empty.
func appendAddrs(buf []byte, as []packet.Addr) []byte {
	if as == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, a := range as {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendAddr(buf, a)
	}
	return append(buf, ']')
}

// appendNodeLine appends n's node line, byte-identical to
// json.Marshal(n) plus '\n'.
func appendNodeLine(buf []byte, n *AtlasNodeV2) []byte {
	buf = append(buf, `{"addr":`...)
	buf = appendAddr(buf, n.Addr)
	buf = append(buf, `,"seen":`...)
	if n.Seen == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, o := range n.Seen {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(o[0]), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(o[1]), 10)
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"succ":`...)
	buf = appendAddrs(buf, n.Succ)
	if n.Router != 0 {
		buf = append(buf, `,"router":`...)
		buf = appendAddr(buf, n.Router)
	}
	return append(buf, "}\n"...)
}

// appendRouterLine appends rt's router line, byte-identical to
// json.Marshal(rt) plus '\n'.
func appendRouterLine(buf []byte, rt *AtlasRouter) []byte {
	buf = append(buf, `{"addrs":`...)
	buf = appendAddrs(buf, rt.Addrs)
	return append(buf, "}\n"...)
}

// lineParser reads one line in exactly the form json.Marshal writes:
// the atlas lines above and the record lines of record_lines.go. The first
// deviation clears ok; once clear, every method is a no-op. The line is
// read where it stands, a substring of a section or a buffer a point
// read filled, as packet.ScanAddr reads an address.
type lineParser[S string | []byte] struct {
	s  S
	i  int
	ok bool
}

// skip consumes lit if the input continues with it.
func (p *lineParser[S]) skip(lit string) bool {
	if p.ok && len(p.s)-p.i >= len(lit) && string(p.s[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit or clears ok.
func (p *lineParser[S]) lit(lit string) {
	if !p.skip(lit) {
		p.ok = false
	}
}

// skipChar consumes c if the input continues with it.
func (p *lineParser[S]) skipChar(c byte) bool {
	if p.ok && p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// char consumes c or clears ok.
func (p *lineParser[S]) char(c byte) {
	if !p.skipChar(c) {
		p.ok = false
	}
}

// str reads a quoted string of plain bytes and returns it as a
// substring of the line: no copy, no escapes to undo.
func (p *lineParser[S]) str() S {
	var none S
	if !p.ok || p.i >= len(p.s) || p.s[p.i] != '"' {
		p.ok = false
		return none
	}
	j := p.i + 1
	for j < len(p.s) && plainJSON[p.s[j]] {
		j++
	}
	if j == len(p.s) || p.s[j] != '"' {
		p.ok = false
		return none
	}
	v := p.s[p.i+1 : j]
	p.i = j + 1
	return v
}

// addr reads a quoted address in its canonical text, the one form
// packet.Addr's UnmarshalText accepts, in one pass over the line:
// packet.ScanAddr reads the address where it stands, and the closing
// quote must follow it.
func (p *lineParser[S]) addr() packet.Addr {
	if !p.ok || p.i >= len(p.s) || p.s[p.i] != '"' {
		p.ok = false
		return 0
	}
	a, n := packet.ScanAddr(p.s[p.i+1:])
	end := p.i + 1 + n
	if n == 0 || end >= len(p.s) || p.s[end] != '"' {
		p.ok = false
		return 0
	}
	p.i = end + 1
	return a
}

// require clears ok unless cond holds.
func (p *lineParser[S]) require(cond bool) {
	if !cond {
		p.ok = false
	}
}

// boolean reads true or false.
func (p *lineParser[S]) boolean() bool {
	if p.skip("true") {
		return true
	}
	p.lit("false")
	return false
}

// intToken consumes an integer token as json.Marshal writes one — a
// minus where signed, then digits with no leading zero, and no "-0" —
// and returns it with the value of its digits, exact for up to 19.
func (p *lineParser[S]) intToken(signed bool) (tok S, mag uint64) {
	if !p.ok {
		return tok, 0
	}
	j := p.i
	if signed && j < len(p.s) && p.s[j] == '-' {
		j++
	}
	k := j
	for ; k < len(p.s) && p.s[k] >= '0' && p.s[k] <= '9'; k++ {
		mag = mag*10 + uint64(p.s[k]-'0')
	}
	if k == j || (p.s[j] == '0' && (k-j > 1 || j > p.i)) {
		p.ok = false
		return tok, 0
	}
	tok = p.s[p.i:k]
	p.i = k
	return tok, mag
}

// integer reads a canonical integer that fits in a signed integer of
// the given bit size.
func (p *lineParser[S]) integer(bits int) int64 {
	tok, mag := p.intToken(true)
	neg := len(tok) > 0 && tok[0] == '-'
	if len(tok) > 18 { // may not fit an int64: let strconv judge
		v, err := strconv.ParseInt(string(tok), 10, bits)
		p.require(err == nil)
		return v
	}
	v := int64(mag)
	if neg {
		v = -v
	}
	p.require(bits == 64 || (v >= -1<<(bits-1) && v < 1<<(bits-1)))
	return v
}

// num reads a canonical int.
func (p *lineParser[S]) num() int { return int(p.integer(strconv.IntSize)) }

// small reads a canonical int, taking the common case — a non-negative
// run of at most 9 digits, which fits any int or int32 — in one loop,
// and handing anything else (a sign, a leading zero, a longer run) to
// integer, which decides it.
func (p *lineParser[S]) small(bits int) int64 {
	v, j := int64(0), p.i
	for ; p.ok && j < len(p.s) && j-p.i < 10 && p.s[j]-'0' <= 9; j++ {
		v = v*10 + int64(p.s[j]-'0')
	}
	if n := j - p.i; n == 0 || n == 10 || (n > 1 && p.s[p.i] == '0') {
		return p.integer(bits)
	}
	p.i = j
	return v
}

// unsigned reads a canonical uint64.
func (p *lineParser[S]) unsigned() uint64 {
	tok, mag := p.intToken(false)
	if len(tok) > 19 { // may not fit a uint64: let strconv judge
		v, err := strconv.ParseUint(string(tok), 10, 64)
		p.require(err == nil)
		return v
	}
	return mag
}

// float reads a float64 as json.Marshal writes one: a number token that
// appendJSONFloat renders back to itself, so "1.50", "1E2" or a value
// out of range are refused.
func (p *lineParser[S]) float() float64 {
	if !p.ok {
		return 0
	}
	j := p.i
	for j < len(p.s) && strings.IndexByte("0123456789.-+e", p.s[j]) >= 0 {
		j++
	}
	tok := string(p.s[p.i:j])
	v, err := strconv.ParseFloat(tok, 64)
	var buf [32]byte
	if err != nil || string(appendJSONFloat(buf[:0], v)) != tok {
		p.ok = false
		return 0
	}
	p.i = j
	return v
}

// open reads the '[' that opens an array and reports whether an
// element follows; next, after each element, reads the ',' before
// another (true) or the closing ']' (false). Together they drive an
// array as a plain loop, the element read inline:
//
//	for more := p.open(); more; more = p.next() { … }
//
// Both report false once ok is clear, so the loop ends at the first
// deviation.
func (p *lineParser[S]) open() bool {
	if !p.ok || p.i >= len(p.s) || p.s[p.i] != '[' {
		p.ok = false
		return false
	}
	p.i++
	if p.i < len(p.s) && p.s[p.i] == ']' {
		p.i++
		return false
	}
	return true
}

func (p *lineParser[S]) next() bool {
	if p.ok && p.i < len(p.s) {
		switch p.s[p.i] {
		case ',':
			p.i++
			return true
		case ']':
			p.i++
			return false
		}
	}
	p.ok = false
	return false
}

// obs reads one [p,h] provenance pair.
func (p *lineParser[S]) obs() [2]int {
	p.char('[')
	a := p.small(strconv.IntSize)
	p.char(',')
	b := p.small(strconv.IntSize)
	p.char(']')
	return [2]int{int(a), int(b)}
}

// slab hands out sub-slices of shared backing arrays, so a block's
// Seen and Succ lists cost one allocation per chunk, not one per node.
// Every slice it returns is capped at its own length, so a caller's
// append reallocates instead of overwriting a neighbour's entries.
type slab[T any] struct {
	buf   []T
	chunk int // entries per backing array
}

// copy returns a slab-backed copy of v: non-nil even when v is empty,
// as encoding/json decodes "[]".
func (s *slab[T]) copy(v []T) []T {
	if len(v) == 0 {
		return []T{}
	}
	if cap(s.buf)-len(s.buf) < len(v) {
		s.buf = make([]T, 0, max(s.chunk, len(v)))
	}
	i := len(s.buf)
	s.buf = append(s.buf, v...)
	return s.buf[i:len(s.buf):len(s.buf)]
}

// lineDecoder decodes the lines of one section: a shard block, the
// pairs or the diamonds. The lists it parses share memory: they come
// from its slabs. The strings it parses are substrings of the lines
// it is handed, which are substrings of the section.
type lineDecoder struct {
	seen    slab[[2]int]
	addrs   slab[packet.Addr]
	seenTmp [][2]int
	addrTmp []packet.Addr
	intTmp  []int
}

// newLineDecoder decodes a section of n lines, sizing the slabs'
// chunks for it.
func newLineDecoder(n int) *lineDecoder {
	chunk := max(cappedPrealloc(n), 16)
	return &lineDecoder{seen: slab[[2]int]{chunk: chunk}, addrs: slab[packet.Addr]{chunk: chunk}}
}

// addrList reads null or an array of addresses into d.addrTmp and
// reports whether it read null.
func addrList[S string | []byte](d *lineDecoder, p *lineParser[S]) (null bool) {
	d.addrTmp = d.addrTmp[:0]
	null = p.skip("null")
	for more := !null && p.open(); more; more = p.next() {
		d.addrTmp = append(d.addrTmp, p.addr())
	}
	return null
}

// parseNode parses a canonical node line into *n, which must be zero;
// it reports false, leaving *n zero, for any other line.
func parseNode[S string | []byte](d *lineDecoder, s S, n *AtlasNodeV2) bool {
	p := lineParser[S]{s: s, ok: true}
	p.lit(`{"addr":`)
	n.Addr = p.addr()
	p.lit(`,"seen":`)
	d.seenTmp = d.seenTmp[:0]
	seenNull := p.skip("null")
	for more := !seenNull && p.open(); more; more = p.next() {
		d.seenTmp = append(d.seenTmp, p.obs())
	}
	p.lit(`,"succ":`)
	succNull := addrList(d, &p)
	if p.skip(`,"router":`) {
		n.Router = p.addr()
		p.require(n.Router != 0) // the encoder omits a zero router
	}
	p.char('}')
	if !p.ok || p.i != len(s) {
		*n = AtlasNodeV2{}
		return false
	}
	if !seenNull {
		n.Seen = d.seen.copy(d.seenTmp)
	}
	if !succNull {
		n.Succ = d.addrs.copy(d.addrTmp)
	}
	return true
}

// parseRouter parses a canonical router line into *rt, which must be
// zero; it reports false, leaving *rt zero, for any other line.
func parseRouter[S string | []byte](d *lineDecoder, s S, rt *AtlasRouter) bool {
	p := lineParser[S]{s: s, ok: true}
	p.lit(`{"addrs":`)
	null := addrList(d, &p)
	p.char('}')
	if !p.ok || p.i != len(s) {
		return false
	}
	if !null {
		rt.Addrs = d.addrs.copy(d.addrTmp)
	}
	return true
}

// pair parses a canonical pair line into *pr, which must be zero; it
// reports false, leaving *pr zero, for any other line.
func (d *lineDecoder) pair(s string, pr *AtlasPair) bool {
	p := lineParser[string]{s: s, ok: true}
	p.lit(`{"pair":`)
	n := p.num()
	p.lit(`,"src":`)
	src := p.str()
	p.lit(`,"dst":`)
	dst := p.str()
	p.char('}')
	if !p.ok || p.i != len(s) {
		return false
	}
	*pr = AtlasPair{Pair: n, Src: src, Dst: dst}
	return true
}

// diamond parses a canonical diamond line into *dm, which must be zero;
// it reports false, leaving *dm zero, for any other line.
func (d *lineDecoder) diamond(s string, dm *AtlasDiamond) bool {
	p := lineParser[string]{s: s, ok: true}
	p.lit(`{"div":`)
	div := p.str()
	p.lit(`,"conv":`)
	conv := p.str()
	p.lit(`,"count":`)
	count := p.num()
	p.lit(`,"pairs":`)
	d.intTmp = d.intTmp[:0]
	null := p.skip("null")
	for more := !null && p.open(); more; more = p.next() {
		d.intTmp = append(d.intTmp, p.num())
	}
	p.lit(`,"max_width":`)
	width := p.num()
	p.lit(`,"max_length":`)
	length := p.num()
	p.char('}')
	if !p.ok || p.i != len(s) {
		return false
	}
	*dm = AtlasDiamond{Div: div, Conv: conv, Count: count, MaxWidth: width, MaxLength: length}
	if !null {
		dm.Pairs = append([]int{}, d.intTmp...) // "[]" is empty, not nil
	}
	return true
}
