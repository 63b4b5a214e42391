package survey

import (
	"fmt"

	"mmlpt/internal/atlas"
	"mmlpt/internal/traceio"
)

// AtlasSink feeds a streaming survey into a cross-trace atlas: each
// record's topology, routers and diamond encounters merge into the
// store the moment the pair completes. Composable with any other sink
// (the JSONL record log, aggregates); because the atlas's snapshot
// is canonical — nodes keyed by address, written in ascending address
// order — the snapshot a run produces is byte-identical for every
// worker count, and a resumed run's replay rebuilds the exact atlas an
// uninterrupted run would have produced.
//
// With PublishDeltas the sink additionally writes periodic incremental
// snapshots — each covering only the records since the previous publish
// — so a serving process (cmd/atlasd) can advance its view of a
// long-running survey by compacting base + deltas (atlas.Compact)
// and swapping, without waiting for the run to finish.
type AtlasSink struct {
	Atlas *atlas.Atlas

	opt          atlas.Options
	publishBase  string
	publishEvery int
	delta        *atlas.Atlas
	sinceFlush   int
	published    []string
}

// NewAtlasSink returns a sink feeding a fresh atlas built with opt.
func NewAtlasSink(opt atlas.Options) *AtlasSink {
	return &AtlasSink{Atlas: atlas.New(opt), opt: opt}
}

// PublishDeltas enables incremental publishing: after every `every`
// records the sink atomically writes a delta snapshot next to basePath
// (basePath.d000000, .d000001, …) covering only the records since the
// previous delta. Compacting all deltas over an empty base reproduces
// the full snapshot byte-for-byte. Must be called before the first
// Emit.
func (s *AtlasSink) PublishDeltas(basePath string, every int) {
	if every <= 0 {
		every = 1
	}
	s.publishBase = basePath
	s.publishEvery = every
	s.delta = atlas.New(s.opt)
}

// Published returns the delta snapshot paths written so far.
func (s *AtlasSink) Published() []string {
	return append([]string(nil), s.published...)
}

// Emit merges one record.
func (s *AtlasSink) Emit(rec *traceio.SurveyRecord) error {
	if err := s.Atlas.AddRecord(rec); err != nil {
		return err
	}
	if s.delta == nil {
		return nil
	}
	if err := s.delta.AddRecord(rec); err != nil {
		return err
	}
	s.sinceFlush++
	if s.sinceFlush >= s.publishEvery {
		return s.flushDelta()
	}
	return nil
}

func (s *AtlasSink) flushDelta() error {
	path := fmt.Sprintf("%s.d%06d", s.publishBase, len(s.published))
	if err := s.delta.Save(path); err != nil {
		return fmt.Errorf("atlas delta %s: %w", path, err)
	}
	s.published = append(s.published, path)
	s.delta = atlas.New(s.opt)
	s.sinceFlush = 0
	return nil
}

// Close flushes a final partial delta when publishing is enabled; the
// atlas itself stays queryable after the run.
func (s *AtlasSink) Close() error {
	if s.delta != nil && s.sinceFlush > 0 {
		return s.flushDelta()
	}
	return nil
}
