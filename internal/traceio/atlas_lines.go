package traceio

import (
	"encoding/json"
	"strconv"
	"strings"
)

// Hand-written codecs for the two line kinds that make up nearly all of
// a snapshot: node lines {"addr":…,"seen":[[p,h],…],"succ":[…],"router":…}
// and router lines {"addrs":[…]}. The encoders write exactly the bytes
// json.Marshal writes (plus the '\n'); the parsers accept exactly the
// bytes the encoders write and report anything else as not canonical,
// so the caller hands that line to encoding/json and the reflection
// decoder stays the one authority on what a line means. FuzzAtlasLines
// holds both halves to encoding/json.

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

// appendJSONStrings appends ss as json.Marshal renders a []string: null
// for nil, [] for empty.
func appendJSONStrings(buf []byte, ss []string) []byte {
	if ss == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, s)
	}
	return append(buf, ']')
}

// appendNodeLine appends n's node line, byte-identical to
// json.Marshal(n) plus '\n'.
func appendNodeLine(buf []byte, n *AtlasNodeV2) []byte {
	buf = append(buf, `{"addr":`...)
	buf = appendJSONString(buf, n.Addr)
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
	buf = appendJSONStrings(buf, n.Succ)
	if n.Router != "" {
		buf = append(buf, `,"router":`...)
		buf = appendJSONString(buf, n.Router)
	}
	return append(buf, "}\n"...)
}

// appendRouterLine appends rt's router line, byte-identical to
// json.Marshal(rt) plus '\n'.
func appendRouterLine(buf []byte, rt *AtlasRouter) []byte {
	buf = append(buf, `{"addrs":`...)
	buf = appendJSONStrings(buf, rt.Addrs)
	return append(buf, "}\n"...)
}

// maxIntDigits bounds the integers the parser reads itself, so the
// value cannot overflow an int; longer ones go to encoding/json.
const maxIntDigits = strconv.IntSize*3/10 - 1

// lineParser reads one line in exactly the form the encoders above
// write. The first deviation clears ok; once clear, every method is a
// no-op.
type lineParser struct {
	s  string
	i  int
	ok bool
}

// skip consumes lit if the input continues with it.
func (p *lineParser) skip(lit string) bool {
	if p.ok && strings.HasPrefix(p.s[p.i:], lit) {
		p.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit or clears ok.
func (p *lineParser) lit(lit string) {
	if !p.skip(lit) {
		p.ok = false
	}
}

// skipChar consumes c if the input continues with it.
func (p *lineParser) skipChar(c byte) bool {
	if p.ok && p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// char consumes c or clears ok.
func (p *lineParser) char(c byte) {
	if !p.skipChar(c) {
		p.ok = false
	}
}

// str reads a quoted string of plain bytes and returns it as a
// substring of the line: no copy, no escapes to undo.
func (p *lineParser) str() string {
	if !p.ok || p.i >= len(p.s) || p.s[p.i] != '"' {
		p.ok = false
		return ""
	}
	j := p.i + 1
	for j < len(p.s) && plainJSON[p.s[j]] {
		j++
	}
	if j == len(p.s) || p.s[j] != '"' {
		p.ok = false
		return ""
	}
	v := p.s[p.i+1 : j]
	p.i = j + 1
	return v
}

// num reads an integer as json.Marshal writes one: an optional minus,
// no leading zero, no "-0", at most maxIntDigits digits.
func (p *lineParser) num() int {
	if !p.ok {
		return 0
	}
	j := p.i
	neg := j < len(p.s) && p.s[j] == '-'
	if neg {
		j++
	}
	k, v := j, 0
	for k < len(p.s) && k-j < maxIntDigits && p.s[k] >= '0' && p.s[k] <= '9' {
		v = v*10 + int(p.s[k]-'0')
		k++
	}
	if k == j || (p.s[j] == '0' && (k-j > 1 || neg)) || (k < len(p.s) && p.s[k] >= '0' && p.s[k] <= '9') {
		p.ok = false
		return 0
	}
	p.i = k
	if neg {
		return -v
	}
	return v
}

// pairs reads null or an array of [p,h] pairs into *dst and reports
// whether it read null.
func (p *lineParser) pairs(dst *[][2]int) (null bool) {
	*dst = (*dst)[:0]
	if p.skip("null") {
		return true
	}
	p.char('[')
	if p.skipChar(']') {
		return false
	}
	for p.ok {
		p.char('[')
		a := p.num()
		p.char(',')
		b := p.num()
		p.char(']')
		*dst = append(*dst, [2]int{a, b})
		if !p.skipChar(',') {
			break
		}
	}
	p.char(']')
	return false
}

// strs reads null or an array of strings into *dst and reports whether
// it read null.
func (p *lineParser) strs(dst *[]string) (null bool) {
	*dst = (*dst)[:0]
	if p.skip("null") {
		return true
	}
	p.char('[')
	if p.skipChar(']') {
		return false
	}
	for p.ok {
		*dst = append(*dst, p.str())
		if !p.skipChar(',') {
			break
		}
	}
	p.char(']')
	return false
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

// lineDecoder decodes the node and router lines of one shard block.
// Values it parses share memory: strings are substrings of the block's
// text, lists come from its slabs.
type lineDecoder struct {
	text    string // the block, which the line scanner's offsets index
	seen    slab[[2]int]
	strs    slab[string]
	seenTmp [][2]int
	strTmp  []string
}

// newLineDecoder decodes a block of n nodes held in text, sizing the
// slabs' chunks for it.
func newLineDecoder(text string, n int) *lineDecoder {
	chunk := max(cappedPrealloc(n), 16)
	return &lineDecoder{text: text, seen: slab[[2]int]{chunk: chunk}, strs: slab[string]{chunk: chunk}}
}

// node parses a canonical node line into *n, which must be zero; it
// reports false, leaving *n zero, for any other line.
func (d *lineDecoder) node(s string, n *AtlasNodeV2) bool {
	p := lineParser{s: s, ok: true}
	p.lit(`{"addr":`)
	n.Addr = p.str()
	p.lit(`,"seen":`)
	seenNull := p.pairs(&d.seenTmp)
	p.lit(`,"succ":`)
	succNull := p.strs(&d.strTmp)
	if p.skip(`,"router":`) {
		n.Router = p.str()
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
		n.Succ = d.strs.copy(d.strTmp)
	}
	return true
}

// router parses a canonical router line into *rt, which must be zero;
// it reports false, leaving *rt zero, for any other line.
func (d *lineDecoder) router(s string, rt *AtlasRouter) bool {
	p := lineParser{s: s, ok: true}
	p.lit(`{"addrs":`)
	null := p.strs(&d.strTmp)
	p.char('}')
	if !p.ok || p.i != len(s) {
		return false
	}
	if !null {
		rt.Addrs = d.strs.copy(d.strTmp)
	}
	return true
}
