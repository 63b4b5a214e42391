package traceio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// The trace record.
//
// SurveyRecord is the one record of one trace that every tool writes
// and reads (DESIGN.md, "The trace record"; TestRecordLayout pins a
// line). It carries the survey measurements too, so folding a record log
// (a fleet's shards, a resumed survey's) rebuilds a live run's aggregate.

// SurveyDiamond is one diamond encounter with its survey metrics.
type SurveyDiamond struct {
	Div         string  `json:"div"`
	Conv        string  `json:"conv"`
	MaxLength   int     `json:"max_length"`
	MaxWidth    int     `json:"max_width"`
	Asymmetry   int     `json:"max_width_asymmetry"`
	Meshed      bool    `json:"meshed"`
	MeshedRatio float64 `json:"ratio_meshed_hops"`
	Uniform     bool    `json:"uniform"`
	MaxProbDiff float64 `json:"max_prob_diff"`
	// MeshMissProbs holds, per meshed hop pair, the Eq. (1) probability
	// that the MDA-Lite misses the meshing at the surveyed phi.
	MeshMissProbs []float64 `json:"mesh_miss_probs,omitempty"`
}

// SurveyRecord is the record of one trace.
type SurveyRecord struct {
	// PairIndex is the survey pair (or cmd/mmlpt run) the trace belongs
	// to; HasLB is the pair's ground-truth load-balancer label, false
	// where no ground truth exists.
	PairIndex int    `json:"pair_index"`
	HasLB     bool   `json:"has_lb"`
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	Algorithm string `json:"algorithm"`
	Probes    uint64 `json:"probes"`
	Reached   bool   `json:"reached"`
	Switched  bool   `json:"switched_to_mda,omitempty"`
	// Hops lists each hop's addresses in topo.Graph hop order, a star as
	// topo.StarAddr; Succ lists each vertex's successors by global
	// hop-major vertex index (an edge may skip hops), in Succ order.
	Hops addrLists `json:"hops"`
	Succ [][]int32 `json:"succ"`
	// Routers are the trace's accepted alias sets (multilevel only).
	Routers     addrLists `json:"routers,omitempty"`
	AliasProbes uint64    `json:"alias_probes,omitempty"`
	// Diamonds carries the survey metrics per diamond encounter, in hop
	// order: what the survey's figures are folded from.
	Diamonds []SurveyDiamond `json:"diamonds,omitempty"`
	// PriorHops counts the hops confirmed from an atlas prior; PriorStale
	// marks a trace whose prior mismatched the live route and was
	// abandoned. Both are zero-valued (and omitted) for unseeded runs.
	PriorHops  int  `json:"prior_hops,omitempty"`
	PriorStale bool `json:"prior_stale,omitempty"`
}

// NewSurveyRecord builds the record of a trace's topology g, the
// inverse of Graph. The caller fills in the tracer's counters, router
// sets and the survey fields (pair, ground truth, diamonds, prior).
func NewSurveyRecord(src, dst packet.Addr, algorithm string, g *topo.Graph) *SurveyRecord {
	rec := &SurveyRecord{
		Src: src.String(), Dst: dst.String(), Algorithm: algorithm,
		Hops: make(addrLists, g.NumHops()),
	}
	var order []topo.VertexID // hop-major
	index := make([]int32, g.NumVertices())
	for h := range rec.Hops {
		rec.Hops[h] = make([]packet.Addr, 0, g.Width(h))
		for _, id := range g.Hop(h) {
			index[id] = int32(len(order))
			order = append(order, id)
			rec.Hops[h] = append(rec.Hops[h], g.V(id).Addr)
		}
	}
	rec.Succ = make([][]int32, len(order))
	for k, id := range order {
		rec.Succ[k] = make([]int32, 0, g.OutDegree(id))
		for _, w := range g.Succ(id) {
			rec.Succ[k] = append(rec.Succ[k], index[w])
		}
	}
	return rec
}

// Graph rebuilds the trace topology the record holds.
func (sr *SurveyRecord) Graph() (*topo.Graph, error) {
	if err := sr.Check(); err != nil {
		return nil, err
	}
	g := topo.New()
	ids := make([]topo.VertexID, 0, len(sr.Succ))
	for h, hop := range sr.Hops {
		for _, a := range hop {
			ids = append(ids, g.AddVertex(h, a))
		}
	}
	for k, succ := range sr.Succ {
		for _, j := range succ {
			g.AddEdge(ids[k], ids[j])
		}
	}
	return g, nil
}

// Check is the structural validation DecodeSurveyRecords, Graph and
// atlas ingest share: at most 255 hops, one successor list per vertex,
// and every successor index naming a vertex. (An address not in its
// canonical text is already refused by the line decoder.)
func (sr *SurveyRecord) Check() error {
	if len(sr.Hops) > 255 { // hop h is probed at TTL h+1, and a TTL is one byte
		return fmt.Errorf("traceio: %d hops, a TTL allows at most 255", len(sr.Hops))
	}
	n := 0
	for _, hop := range sr.Hops {
		n += len(hop)
	}
	if len(sr.Succ) != n {
		return fmt.Errorf("traceio: %d successor lists for %d vertices", len(sr.Succ), n)
	}
	for k, succ := range sr.Succ {
		for _, j := range succ {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("traceio: vertex %d: successor index %d outside [0, %d)", k, j, n)
			}
		}
	}
	return nil
}

// lineBufs recycles WriteJSONL's line buffers.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteJSONL appends the record as one JSON line, in one Write: the
// bytes json.NewEncoder(w).Encode(sr) writes.
func (sr *SurveyRecord) WriteJSONL(w io.Writer) error {
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	line, err := appendRecordLine((*bp)[:0], sr)
	*bp = line
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// DecodeSurveyRecords streams records to fn until EOF or the first
// error. A record is one '\n'-terminated line in the form WriteJSONL
// writes, so every record fn gets re-encodes to the bytes it was read
// from. Any other line (blank, CRLF, pretty-printed, an unknown field,
// a spelling WriteJSONL never writes, no final '\n') is an error naming
// the record and why it was refused, as is a record failing Check. fn
// errors abort the scan and are returned verbatim.
func DecodeSurveyRecords(r io.Reader, fn func(*SurveyRecord) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var d recordParser
	var long []byte // a line longer than br's buffer, gathered
	for n := 0; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		switch {
		case err == io.EOF && len(line) == 0:
			return nil
		case err == io.EOF:
			return fmt.Errorf("traceio: record %d: %v", n, refused[SurveyRecord](line, "no final newline"))
		case err != nil:
			return err
		case len(line) == 1:
			return fmt.Errorf("traceio: record %d: blank line", n)
		}
		sr := new(SurveyRecord)
		if err := d.parse(string(line[:len(line)-1]), sr); err != nil {
			return fmt.Errorf("traceio: record %d: %v", n, err)
		}
		if err := sr.Check(); err != nil {
			return fmt.Errorf("record %d (pair %d): %w", n, sr.PairIndex, err)
		}
		if err := fn(sr); err != nil {
			return err
		}
	}
}

// addrLists is a JSON array of address lists: dotted quads, "*" for a
// star. One marshaler per list of lists keeps encoding/json's per-value
// overhead off each hop.
type addrLists [][]packet.Addr

func (ls addrLists) MarshalJSON() ([]byte, error) {
	return ls.append(make([]byte, 0, 64*len(ls))), nil
}

// append appends the lists' JSON array.
func (ls addrLists) append(b []byte) []byte {
	b = append(b, '[')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, a := range l {
			if j > 0 {
				b = append(b, ',')
			}
			if a == topo.StarAddr {
				b = append(b, `"*"`...)
			} else {
				b = appendAddr(b, a)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// UnmarshalJSON reads the lists as a record line holds them, for
// DecodeSurveyRecords to word why it refused a line: "*" for a star,
// any other address in its canonical text and never 0.0.0.0.
func (ls *addrLists) UnmarshalJSON(data []byte) error {
	var sss [][]string
	if err := json.Unmarshal(data, &sss); err != nil {
		return err
	}
	*ls = make(addrLists, len(sss))
	for i, ss := range sss {
		(*ls)[i] = make([]packet.Addr, len(ss))
		for j, s := range ss {
			if s == "*" { // a star stays topo.StarAddr, the zero address
				continue
			}
			a, err := packet.ParseCanonicalAddr(s)
			if err == nil && a == topo.StarAddr {
				err = errors.New(`a star is written "*", not 0.0.0.0`)
			}
			if err != nil {
				return err
			}
			(*ls)[i][j] = a
		}
	}
	return nil
}

// JSONLWriter appends JSONL records to a buffered file and counts the
// bytes written.
type JSONLWriter struct {
	f   *os.File
	w   *bufio.Writer
	off int64
}

// CreateJSONL creates (or truncates) path for streaming writes.
func CreateJSONL(path string) (*JSONLWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONLWriter{f: f, w: bufio.NewWriter(f)}, nil
}

// Offset returns the number of bytes written so far.
func (jw *JSONLWriter) Offset() int64 { return jw.off }

// Write appends one record as a JSON line.
func (jw *JSONLWriter) Write(rec interface{ WriteJSONL(io.Writer) error }) error {
	n := &countingWriter{w: jw.w}
	if err := rec.WriteJSONL(n); err != nil {
		return err
	}
	jw.off += n.n
	return nil
}

// Close flushes buffered records, fsyncs and closes the file.
func (jw *JSONLWriter) Close() error {
	err := jw.w.Flush()
	if err == nil {
		err = jw.f.Sync()
	}
	if cerr := jw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
