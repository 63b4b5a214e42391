package survey

import (
	"fmt"
	"os"
	"sort"

	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Sink consumes survey records as pairs finish tracing. Run delivers
// records in pair order on a single goroutine (the collector), so sinks
// need no internal locking; an Emit error aborts the run and is returned
// from Run. Run never closes sinks — the caller that built them does.
type Sink interface {
	Emit(*traceio.SurveyRecord) error
	Close() error
}

// Flusher is implemented by sinks that buffer: Run flushes all of them
// before writing a checkpoint, so the checkpoint never points past
// durable data.
type Flusher interface {
	Flush() error
}

// NewRecord converts one trace outcome into its streamed record. The
// record is byte-stable: encoding, decoding and re-encoding it yields
// identical JSONL bytes, which is what makes a resumed run's output file
// byte-identical to an uninterrupted one.
func NewRecord(algo Algo, out TraceOutcome) *traceio.SurveyRecord {
	view := &mda.Result{
		Graph: out.Graph, ReachedDst: out.Reached,
		SwitchedToMDA: out.Switched, Probes: out.Probes, DstHop: -1,
	}
	jt := traceio.NewJSONTrace(out.Pair.Src, out.Pair.Dst, algo.String(), view)
	if out.ML != nil {
		jt.AttachMultilevel(out.ML)
	}
	rec := &traceio.SurveyRecord{
		PairIndex: out.PairIndex, HasLB: out.Pair.HasLB, Trace: *jt,
		PriorHops: out.PriorHops, PriorStale: out.PriorStale,
	}
	for _, d := range out.Diamonds {
		rec.Diamonds = append(rec.Diamonds, traceio.SurveyDiamond{
			Div: addrLabel(d.Key.Div), Conv: addrLabel(d.Key.Conv),
			MaxLength: d.Metrics.MaxLength, MaxWidth: d.Metrics.MaxWidth,
			Asymmetry: d.Metrics.MaxWidthAsymmetry, Meshed: d.Metrics.Meshed,
			MeshedRatio: d.Metrics.RatioMeshedHops, Uniform: d.Metrics.Uniform,
			MaxProbDiff:   d.MaxProbDiff,
			MeshMissProbs: append([]float64(nil), d.MeshMissProbs...),
		})
	}
	return rec
}

func addrLabel(a packet.Addr) string {
	if a == topo.StarAddr {
		return "*"
	}
	return a.String()
}

// JSONLSink streams records to a JSONL file through traceio.JSONLWriter.
// The file is created lazily on first use; Run rewires it to truncate
// and append when resuming from a checkpoint.
type JSONLSink struct {
	path string
	jw   *traceio.JSONLWriter
}

// NewJSONLSink returns a sink that will create (or truncate) path on
// first use.
func NewJSONLSink(path string) *JSONLSink {
	return &JSONLSink{path: path}
}

// Path returns the output file.
func (s *JSONLSink) Path() string { return s.path }

// resumeAt truncates the file to the checkpointed durable offset and
// positions the writer there. It must run before the first Emit.
func (s *JSONLSink) resumeAt(off int64) error {
	if s.jw != nil {
		return fmt.Errorf("survey: JSONL sink %s already open, cannot resume", s.path)
	}
	jw, err := traceio.OpenJSONLAt(s.path, off)
	if err != nil {
		return err
	}
	s.jw = jw
	return nil
}

func (s *JSONLSink) open() error {
	if s.jw != nil {
		return nil
	}
	jw, err := traceio.CreateJSONL(s.path)
	if err != nil {
		return err
	}
	s.jw = jw
	return nil
}

// Emit appends one record.
func (s *JSONLSink) Emit(rec *traceio.SurveyRecord) error {
	if err := s.open(); err != nil {
		return err
	}
	return s.jw.Write(rec)
}

// Offset returns the bytes written so far (durable only after Flush).
func (s *JSONLSink) Offset() int64 {
	if s.jw == nil {
		return 0
	}
	return s.jw.Offset()
}

// Flush fsyncs the file. A sink that never emitted has never touched
// the disk, and Flush keeps it that way — so closing or flushing a sink
// after a refused resume cannot truncate the record log the refusal
// protected. (A zero-record run therefore creates no file.)
func (s *JSONLSink) Flush() error {
	if s.jw == nil {
		return nil
	}
	return s.jw.Sync()
}

// Close flushes and closes the file; a no-op if nothing was emitted.
func (s *JSONLSink) Close() error {
	if s.jw == nil {
		return nil
	}
	return s.jw.Close()
}

// MemorySink collects records in order, the streaming analogue of
// reading Result.Outcomes afterwards.
type MemorySink struct {
	Records []*traceio.SurveyRecord
}

// Emit appends the record.
func (s *MemorySink) Emit(rec *traceio.SurveyRecord) error {
	s.Records = append(s.Records, rec)
	return nil
}

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// RecordAggregate is the record-level counterpart of Result: every
// number it holds is derived from the streamed records alone, so it can
// be rebuilt exactly by replaying a JSONL file — the property resume
// uses to restore aggregate state after a kill.
type RecordAggregate struct {
	Algo     string
	Records  int
	Reached  int
	Switched int
	// LBTraces counts records with at least one diamond.
	LBTraces         int
	TotalProbes      uint64
	AliasProbes      uint64
	MeasuredDiamonds int
	// Distinct keeps the first encounter per "div|conv" key, mirroring
	// Result.Distinct.
	Distinct map[string]traceio.SurveyDiamond
}

// NewRecordAggregate returns an empty aggregate.
func NewRecordAggregate() *RecordAggregate {
	return &RecordAggregate{Distinct: make(map[string]traceio.SurveyDiamond)}
}

// Add folds one record in.
func (a *RecordAggregate) Add(rec *traceio.SurveyRecord) {
	if a.Algo == "" {
		a.Algo = rec.Trace.Algorithm
	}
	a.Records++
	if rec.Trace.Reached {
		a.Reached++
	}
	if rec.Trace.Switched {
		a.Switched++
	}
	if len(rec.Diamonds) > 0 {
		a.LBTraces++
	}
	a.TotalProbes += rec.Trace.Probes
	a.AliasProbes += rec.Trace.AliasProbes
	for _, d := range rec.Diamonds {
		a.MeasuredDiamonds++
		k := d.Div + "|" + d.Conv
		if _, ok := a.Distinct[k]; !ok {
			a.Distinct[k] = d
		}
	}
}

// Summary renders the aggregate in the style of Result.Summary.
func (a *RecordAggregate) Summary() string {
	var meshed, len2 int
	keys := make([]string, 0, len(a.Distinct))
	for k := range a.Distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := a.Distinct[k]
		if d.Meshed {
			meshed++
		}
		if d.MaxLength == 2 {
			len2++
		}
	}
	return fmt.Sprintf(
		"traces: %d, with diamonds: %d, reached: %d\ndiamonds: %d measured, %d distinct (len2 %d, meshed %d)\nprobes: %d trace + %d alias\n",
		a.Records, a.LBTraces, a.Reached,
		a.MeasuredDiamonds, len(a.Distinct), len2, meshed,
		a.TotalProbes, a.AliasProbes)
}

// AggregateSink folds records into a RecordAggregate as they stream by.
type AggregateSink struct {
	Agg *RecordAggregate
}

// NewAggregateSink returns a sink over a fresh aggregate.
func NewAggregateSink() *AggregateSink {
	return &AggregateSink{Agg: NewRecordAggregate()}
}

// Emit folds the record in.
func (s *AggregateSink) Emit(rec *traceio.SurveyRecord) error {
	s.Agg.Add(rec)
	return nil
}

// Close is a no-op.
func (s *AggregateSink) Close() error { return nil }

// ReplayJSONL feeds every record of a JSONL file to the sinks in order,
// returning how many records were replayed. Resume uses it to rebuild
// non-file sinks (aggregates, memories) to the exact state they had when
// the checkpoint was written.
func ReplayJSONL(path string, sinks ...Sink) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	err = traceio.DecodeSurveyRecords(f, func(sr *traceio.SurveyRecord) error {
		for _, s := range sinks {
			if err := s.Emit(sr); err != nil {
				return err
			}
		}
		n++
		return nil
	})
	return n, err
}
