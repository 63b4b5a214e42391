package traceio

import (
	"encoding/json"
	"math"
	"strconv"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// A hand-written codec for record lines, the form every record log and
// unit shard holds. appendRecordLine writes exactly the bytes
// json.NewEncoder(w).Encode writes; recordParser
// accepts exactly the bytes appendRecordLine writes and refuses any
// other line, which DecodeSurveyRecords then hands to encoding/json with
// the rest of its stream — so the reflection decoder stays the one
// authority on what a line means. FuzzRecordLines holds both halves to
// encoding/json.

// appendJSONFloat appends a finite f as encoding/json renders a float64:
// the shortest 'f' form, or 'e' with a two-digit negative exponent
// shortened ("e-07" to "e-7") below 1e-6 and from 1e21 on.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// finite reports whether every float of the record is finite, which is
// when encoding/json marshals it without error.
func (sr *SurveyRecord) finite() bool {
	for i := range sr.Diamonds {
		d := &sr.Diamonds[i]
		if !isFinite(d.MeshedRatio) || !isFinite(d.MaxProbDiff) {
			return false
		}
		for _, f := range d.MeshMissProbs {
			if !isFinite(f) {
				return false
			}
		}
	}
	return true
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendRecordLine appends sr's record line, byte-identical to
// json.NewEncoder(w).Encode(sr). A record with a non-finite float goes
// through encoding/json whole, so its error is encoding/json's too.
func appendRecordLine(buf []byte, sr *SurveyRecord) ([]byte, error) {
	if !sr.finite() {
		b, err := json.Marshal(sr)
		if err != nil {
			return buf, err
		}
		return append(append(buf, b...), '\n'), nil
	}
	buf = append(buf, `{"pair_index":`...)
	buf = strconv.AppendInt(buf, int64(sr.PairIndex), 10)
	buf = append(buf, `,"has_lb":`...)
	buf = strconv.AppendBool(buf, sr.HasLB)
	buf = append(buf, `,"src":`...)
	buf = appendJSONString(buf, sr.Src)
	buf = append(buf, `,"dst":`...)
	buf = appendJSONString(buf, sr.Dst)
	buf = append(buf, `,"algorithm":`...)
	buf = appendJSONString(buf, sr.Algorithm)
	buf = append(buf, `,"probes":`...)
	buf = strconv.AppendUint(buf, sr.Probes, 10)
	buf = append(buf, `,"reached":`...)
	buf = strconv.AppendBool(buf, sr.Reached)
	if sr.Switched {
		buf = append(buf, `,"switched_to_mda":true`...)
	}
	buf = append(buf, `,"hops":`...)
	buf = sr.Hops.append(buf)
	buf = append(buf, `,"succ":`...)
	buf = appendSuccLists(buf, sr.Succ)
	if len(sr.Routers) > 0 {
		buf = append(buf, `,"routers":`...)
		buf = sr.Routers.append(buf)
	}
	if sr.AliasProbes != 0 {
		buf = append(buf, `,"alias_probes":`...)
		buf = strconv.AppendUint(buf, sr.AliasProbes, 10)
	}
	if len(sr.Diamonds) > 0 {
		buf = append(buf, `,"diamonds":[`...)
		for i := range sr.Diamonds {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = sr.Diamonds[i].append(buf)
		}
		buf = append(buf, ']')
	}
	if sr.PriorHops != 0 {
		buf = append(buf, `,"prior_hops":`...)
		buf = strconv.AppendInt(buf, int64(sr.PriorHops), 10)
	}
	if sr.PriorStale {
		buf = append(buf, `,"prior_stale":true`...)
	}
	return append(buf, "}\n"...), nil
}

// appendSuccLists appends successor lists as encoding/json renders a
// [][]int32: null for a nil list.
func appendSuccLists(buf []byte, succ [][]int32) []byte {
	if succ == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, l := range succ {
		if i > 0 {
			buf = append(buf, ',')
		}
		if l == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for j, v := range l {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}

// append appends the diamond's JSON object; its floats must be finite.
func (d *SurveyDiamond) append(buf []byte) []byte {
	buf = append(buf, `{"div":`...)
	buf = appendJSONString(buf, d.Div)
	buf = append(buf, `,"conv":`...)
	buf = appendJSONString(buf, d.Conv)
	buf = append(buf, `,"max_length":`...)
	buf = strconv.AppendInt(buf, int64(d.MaxLength), 10)
	buf = append(buf, `,"max_width":`...)
	buf = strconv.AppendInt(buf, int64(d.MaxWidth), 10)
	buf = append(buf, `,"max_width_asymmetry":`...)
	buf = strconv.AppendInt(buf, int64(d.Asymmetry), 10)
	buf = append(buf, `,"meshed":`...)
	buf = strconv.AppendBool(buf, d.Meshed)
	buf = append(buf, `,"ratio_meshed_hops":`...)
	buf = appendJSONFloat(buf, d.MeshedRatio)
	buf = append(buf, `,"uniform":`...)
	buf = strconv.AppendBool(buf, d.Uniform)
	buf = append(buf, `,"max_prob_diff":`...)
	buf = appendJSONFloat(buf, d.MaxProbDiff)
	if len(d.MeshMissProbs) > 0 {
		buf = append(buf, `,"mesh_miss_probs":[`...)
		for i, f := range d.MeshMissProbs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONFloat(buf, f)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// starAddr reads a quoted address as the record encoder writes one:
// "*" for a star, otherwise a non-zero address's canonical text. So
// "010.0.0.1", "1.2.3" and "0.0.0.0" (which renders as "*") are refused.
func (p *lineParser[S]) starAddr() packet.Addr {
	if p.skip(`"*"`) {
		return topo.StarAddr
	}
	a := p.addr()
	p.require(a != topo.StarAddr)
	return a
}

// recordParser parses record lines. A record's values land first in
// scratch lists reused from line to line, then in exactly-sized copies
// the record owns: one allocation per kind of list, whatever the
// number of hops. Its strings are substrings of the line, so they share
// the line's one allocation.
type recordParser struct {
	p lineParser[string]
	// addrs holds the line's addresses, hops' then routers'; addrEnds
	// where each list of them ends.
	addrs    []packet.Addr
	addrEnds []int
	// succ holds the successor indices; succEnds where each list ends,
	// or -1 for a null list.
	succ     []int32
	succEnds []int
	diamonds []SurveyDiamond
	// probs holds the diamonds' mesh miss probabilities; probEnds where
	// each diamond's end, or -1 where it has none.
	probs    []float64
	probEnds []int
}

// addrLists reads an array of address arrays and returns how many
// arrays it read.
func (d *recordParser) addrLists() int {
	p := &d.p
	n := len(d.addrEnds)
	for more := p.open(); more; more = p.next() {
		for more := p.open(); more; more = p.next() {
			d.addrs = append(d.addrs, p.starAddr())
		}
		d.addrEnds = append(d.addrEnds, len(d.addrs))
	}
	return len(d.addrEnds) - n
}

// diamond reads one diamond object.
func (d *recordParser) diamond() {
	p := &d.p
	var sd SurveyDiamond
	p.lit(`{"div":`)
	sd.Div = p.str()
	p.lit(`,"conv":`)
	sd.Conv = p.str()
	p.lit(`,"max_length":`)
	sd.MaxLength = p.num()
	p.lit(`,"max_width":`)
	sd.MaxWidth = p.num()
	p.lit(`,"max_width_asymmetry":`)
	sd.Asymmetry = p.num()
	p.lit(`,"meshed":`)
	sd.Meshed = p.boolean()
	p.lit(`,"ratio_meshed_hops":`)
	sd.MeshedRatio = p.float()
	p.lit(`,"uniform":`)
	sd.Uniform = p.boolean()
	p.lit(`,"max_prob_diff":`)
	sd.MaxProbDiff = p.float()
	end := -1
	if p.skip(`,"mesh_miss_probs":`) {
		start := len(d.probs)
		for more := p.open(); more; more = p.next() {
			d.probs = append(d.probs, p.float())
		}
		end = len(d.probs)
		p.require(end > start) // omitempty: never []
	}
	p.char('}')
	d.diamonds = append(d.diamonds, sd)
	d.probEnds = append(d.probEnds, end)
}

// parse parses a record line (without its '\n') into *sr, which must be
// zero. It reports false for any line appendRecordLine would not write,
// and *sr is then to be discarded.
func (d *recordParser) parse(s string, sr *SurveyRecord) bool {
	p := &d.p
	*p = lineParser[string]{s: s, ok: true}
	d.addrs, d.addrEnds, d.succ, d.succEnds = d.addrs[:0], d.addrEnds[:0], d.succ[:0], d.succEnds[:0]
	d.diamonds, d.probs, d.probEnds = d.diamonds[:0], d.probs[:0], d.probEnds[:0]

	p.lit(`{"pair_index":`)
	sr.PairIndex = p.num()
	p.lit(`,"has_lb":`)
	sr.HasLB = p.boolean()
	p.lit(`,"src":`)
	sr.Src = p.str()
	p.lit(`,"dst":`)
	sr.Dst = p.str()
	p.lit(`,"algorithm":`)
	sr.Algorithm = p.str()
	p.lit(`,"probes":`)
	sr.Probes = p.unsigned()
	p.lit(`,"reached":`)
	sr.Reached = p.boolean()
	sr.Switched = p.skip(`,"switched_to_mda":true`)
	p.lit(`,"hops":`)
	hops := d.addrLists()
	p.lit(`,"succ":`)
	succNull := p.skip("null")
	for more := !succNull && p.open(); more; more = p.next() {
		if p.skip("null") {
			d.succEnds = append(d.succEnds, -1)
			continue
		}
		for more := p.open(); more; more = p.next() {
			d.succ = append(d.succ, int32(p.small(32)))
		}
		d.succEnds = append(d.succEnds, len(d.succ))
	}
	// The omitempty fields: absent, or present with a value that is not
	// the zero one.
	routers := p.skip(`,"routers":`)
	if routers {
		p.require(d.addrLists() > 0)
	}
	if p.skip(`,"alias_probes":`) {
		sr.AliasProbes = p.unsigned()
		p.require(sr.AliasProbes != 0)
	}
	diamonds := p.skip(`,"diamonds":`)
	if diamonds {
		for more := p.open(); more; more = p.next() {
			d.diamond()
		}
		p.require(len(d.diamonds) > 0)
	}
	if p.skip(`,"prior_hops":`) {
		sr.PriorHops = p.num()
		p.require(sr.PriorHops != 0)
	}
	sr.PriorStale = p.skip(`,"prior_stale":true`)
	p.char('}')
	if !p.ok || p.i != len(s) {
		return false
	}

	// The record's own copies, nil and empty as encoding/json decodes
	// them: hop and router lists are never nil (addrLists' unmarshaler
	// makes them), the rest are nil only where the line says null or
	// omits the field.
	lists := make([][]packet.Addr, len(d.addrEnds))
	addrs := append(make([]packet.Addr, 0, len(d.addrs)), d.addrs...)
	start := 0
	for i, end := range d.addrEnds {
		lists[i] = addrs[start:end:end]
		start = end
	}
	sr.Hops = lists[:hops:hops]
	if routers {
		sr.Routers = lists[hops:]
	}
	if !succNull {
		sr.Succ = make([][]int32, len(d.succEnds))
		ints := append(make([]int32, 0, len(d.succ)), d.succ...)
		start := 0
		for i, end := range d.succEnds {
			if end >= 0 {
				sr.Succ[i] = ints[start:end:end]
				start = end
			}
		}
	}
	if diamonds {
		sr.Diamonds = append(make([]SurveyDiamond, 0, len(d.diamonds)), d.diamonds...)
		probs := append(make([]float64, 0, len(d.probs)), d.probs...)
		start := 0
		for i, end := range d.probEnds {
			if end >= 0 {
				sr.Diamonds[i].MeshMissProbs = probs[start:end:end]
				start = end
			}
		}
	}
	return true
}
