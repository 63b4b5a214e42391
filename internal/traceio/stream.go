package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
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
// line). It carries the survey measurements too, so replaying a record
// log rebuilds a live run's aggregate — what makes resume exact.

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
// and every successor index naming a vertex. (A malformed address
// already fails to unmarshal.)
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
// error. A record that fails to unmarshal or fails the structural checks
// is an error; fn errors abort the scan and are returned verbatim.
//
// Lines in the record encoder's own form are parsed by hand. From the
// first line that is not, the rest of the stream goes to encoding/json,
// so what is accepted, what it decodes to and every error are
// encoding/json's.
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
		sr := new(SurveyRecord)
		if err != nil || !d.parse(string(line[:len(line)-1]), sr) {
			if len(line) == 0 && err == io.EOF {
				return nil
			}
			return decodeJSONRecords(io.MultiReader(bytes.NewReader(line), br), n, fn)
		}
		if err := sr.emit(n, fn); err != nil {
			return err
		}
	}
}

// decodeJSONRecords is DecodeSurveyRecords through encoding/json, for
// a stream whose first record is record n.
func decodeJSONRecords(r io.Reader, n int, fn func(*SurveyRecord) error) error {
	dec := json.NewDecoder(r)
	for ; ; n++ {
		sr := new(SurveyRecord)
		if err := dec.Decode(sr); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := sr.emit(n, fn); err != nil {
			return err
		}
	}
}

// emit runs the structural checks on decoded record n, then fn.
func (sr *SurveyRecord) emit(n int, fn func(*SurveyRecord) error) error {
	if err := sr.Check(); err != nil {
		return fmt.Errorf("record %d (pair %d): %w", n, sr.PairIndex, err)
	}
	return fn(sr)
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

func (ls *addrLists) UnmarshalJSON(data []byte) error {
	var sss [][]string
	if err := json.Unmarshal(data, &sss); err != nil {
		return err
	}
	*ls = make(addrLists, len(sss))
	for i, ss := range sss {
		(*ls)[i] = make([]packet.Addr, len(ss))
		for j, s := range ss {
			if s != "*" { // a star stays topo.StarAddr, the zero address
				a, err := packet.ParseAddr(s)
				if err != nil {
					return err
				}
				(*ls)[i][j] = a
			}
		}
	}
	return nil
}

// ValidateJSONLPrefix checks, without modifying the file, that the
// first off bytes of path decode as exactly want complete records —
// the consistency check a resume must run BEFORE truncating a record
// log to a checkpoint's offset. It catches a checkpoint paired with the
// wrong file (or one written without a record log at all) while the
// file is still intact.
func ValidateJSONLPrefix(path string, off int64, want int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < off {
		return fmt.Errorf("traceio: %s is %d bytes, shorter than checkpointed offset %d", path, st.Size(), off)
	}
	n := 0
	if err := DecodeSurveyRecords(io.LimitReader(f, off), func(*SurveyRecord) error { n++; return nil }); err != nil {
		return fmt.Errorf("traceio: %s: record %d within checkpointed prefix is corrupt: %v", path, n, err)
	}
	if n != want {
		return fmt.Errorf("traceio: %s holds %d records within the checkpointed prefix, checkpoint says %d", path, n, want)
	}
	return nil
}

// JSONLWriter appends JSONL records to a file while tracking the durable
// byte offset, so a checkpoint can later name a prefix of the file that
// is known to be fsynced and complete. The write path is buffered;
// Sync flushes the buffer and fsyncs, and must be called before the
// offset is persisted anywhere.
type JSONLWriter struct {
	path string
	f    *os.File
	w    *bufio.Writer
	off  int64
}

// CreateJSONL creates (or truncates) path for streaming writes.
func CreateJSONL(path string) (*JSONLWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &JSONLWriter{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// OpenJSONLAt opens path for appending after truncating it to off, the
// durable offset recorded by the last checkpoint. Records written after
// the checkpoint but before the crash (possibly torn) are discarded;
// the resumed run re-emits them byte-identically.
func OpenJSONLAt(path string, off int64) (*JSONLWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < off {
		f.Close()
		return nil, fmt.Errorf("traceio: %s is %d bytes, shorter than checkpointed offset %d", path, st.Size(), off)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &JSONLWriter{path: path, f: f, w: bufio.NewWriter(f), off: off}, nil
}

// Path returns the file being written.
func (jw *JSONLWriter) Path() string { return jw.path }

// Offset returns the number of bytes written so far (buffered included).
// Only call it durable after Sync.
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

// Sync flushes buffered records and fsyncs the file, making Offset
// durable.
func (jw *JSONLWriter) Sync() error {
	if err := jw.w.Flush(); err != nil {
		return err
	}
	return jw.f.Sync()
}

// Close syncs and closes the file.
func (jw *JSONLWriter) Close() error {
	syncErr := jw.Sync()
	closeErr := jw.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
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
