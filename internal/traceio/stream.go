package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Streaming survey records.
//
// A SurveyRecord is the unit a streaming survey run emits the moment one
// pair finishes tracing: the archival JSONTrace plus the survey-specific
// measurements (pair index, per-diamond metrics, Eq. (1) miss
// probabilities) that the in-memory aggregate is built from. The record
// is lossless with respect to record-level aggregation: replaying a
// JSONL file of SurveyRecords rebuilds the same aggregate a live run
// produces, which is what makes checkpoint/resume exact.

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

// SurveyRecord is the streamed result of tracing one survey pair.
type SurveyRecord struct {
	PairIndex int  `json:"pair_index"`
	HasLB     bool `json:"has_lb"`
	// Trace is the archival per-trace record (topology, probes, routers).
	Trace JSONTrace `json:"trace"`
	// Diamonds carries the survey metrics per diamond encounter, in hop
	// order, mirroring the in-memory DiamondRecord list.
	Diamonds []SurveyDiamond `json:"diamonds,omitempty"`
	// PriorHops counts the hops confirmed from an atlas prior; PriorStale
	// marks a trace whose prior mismatched the live route and was
	// abandoned. Both are zero-valued (and omitted) for unseeded runs, so
	// pre-prior record files re-encode byte-identically.
	PriorHops  int  `json:"prior_hops,omitempty"`
	PriorStale bool `json:"prior_stale,omitempty"`
}

// WriteJSONL appends the record as one JSON line.
func (sr *SurveyRecord) WriteJSONL(w io.Writer) error {
	return json.NewEncoder(w).Encode(sr)
}

// DecodeSurveyRecords streams records to fn until EOF or the first
// error. fn errors abort the scan and are returned verbatim.
func DecodeSurveyRecords(r io.Reader, fn func(*SurveyRecord) error) error {
	dec := json.NewDecoder(r)
	for {
		sr := new(SurveyRecord)
		if err := dec.Decode(sr); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := fn(sr); err != nil {
			return err
		}
	}
}

// ValidateJSONLPrefix checks, without modifying the file, that the
// first off bytes of path decode as exactly want complete JSON values —
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
	dec := json.NewDecoder(io.LimitReader(f, off))
	n := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("traceio: %s: record %d within checkpointed prefix is corrupt: %v", path, n, err)
		}
		n++
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
