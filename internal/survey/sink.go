package survey

import (
	"os"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Sink consumes survey records as pairs finish tracing. Run delivers
// records in pair order on a single goroutine (the collector), so sinks
// need no internal locking; an Emit error aborts the run and is returned
// from Run. Run never closes sinks: the caller that built one flushes
// it, if it has anything to flush.
type Sink interface {
	Emit(*traceio.SurveyRecord) error
}

// NewRecord converts one trace outcome into its streamed record. The
// record is byte-stable: encoding, decoding and re-encoding it yields
// identical JSONL bytes, which is what makes a merged or resumed run's
// output file byte-identical to an uninterrupted one.
func NewRecord(algo Algo, out TraceOutcome) *traceio.SurveyRecord {
	rec := TraceRecord(out.Pair.Src, out.Pair.Dst, algo.String(), out.Graph, out.Probes, out.Reached, out.Switched, out.ML)
	rec.PairIndex, rec.HasLB = out.PairIndex, out.Pair.HasLB
	rec.PriorHops, rec.PriorStale = out.PriorHops, out.PriorStale
	rec.Diamonds = out.Diamonds
	return rec
}

// TraceRecord builds the record of one trace: its topology g, the
// tracer's probe count and reached and switched flags, and the
// router-level results when ml is non-nil. The caller fills in the
// survey fields (pair, ground truth, diamonds, prior).
func TraceRecord(src, dst packet.Addr, algorithm string, g *topo.Graph, probes uint64, reached, switched bool, ml *core.Result) *traceio.SurveyRecord {
	rec := traceio.NewSurveyRecord(src, dst, algorithm, g)
	rec.Probes, rec.Reached, rec.Switched = probes, reached, switched
	if ml != nil {
		rec.AliasProbes = ml.AliasProbes
		for _, s := range alias.RouterSets(ml.Sets) {
			rec.Routers = append(rec.Routers, append([]packet.Addr(nil), s.Addrs...))
		}
	}
	return rec
}

// JSONLSink streams records to a JSONL file through traceio.JSONLWriter.
// The file is created lazily on first use.
type JSONLSink struct {
	path string
	jw   *traceio.JSONLWriter
}

// NewJSONLSink returns a sink that will create (or truncate) path on
// first use.
func NewJSONLSink(path string) *JSONLSink {
	return &JSONLSink{path: path}
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

// Close flushes and closes the file, creating it empty if nothing was
// emitted.
func (s *JSONLSink) Close() error {
	if err := s.open(); err != nil {
		return err
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
	return s.Agg.Add(rec)
}

// ReplayJSONL feeds every record of a JSONL file to the sinks in order,
// returning how many records were replayed: a record log rebuilds
// non-file sinks (aggregates, memories) to the state a live run left.
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
