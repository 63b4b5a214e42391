package survey

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mmlpt/internal/mda"
	"mmlpt/internal/traceio"
)

// errKilled simulates the process dying mid-survey: a sink that fails
// after a fixed number of records aborts Run exactly like a kill would,
// except the test regains control to run the resume.
var errKilled = errors.New("simulated kill")

type killSink struct {
	after int
	seen  int
}

func (k *killSink) Emit(*traceio.SurveyRecord) error {
	k.seen++
	if k.seen > k.after {
		return errKilled
	}
	return nil
}

func (k *killSink) Close() error { return nil }

// TestStreamingSinksMatchResult: the streamed records must agree with
// the in-memory aggregate — same order, same counts — and survive a
// JSONL round trip losslessly.
func TestStreamingSinksMatchResult(t *testing.T) {
	t.Parallel()
	u := Generate(GenConfig{Seed: 21, Pairs: 50})
	mem := &MemorySink{}
	agg := NewAggregateSink()
	jsonl := NewJSONLSink(filepath.Join(t.TempDir(), "records.jsonl"))
	res, err := Run(u, RunConfig{
		Algo: AlgoMDALite, Retries: 1, Workers: 4,
		Trace: mda.Config{Seed: 21},
		Sinks: []Sink{jsonl, mem, agg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	if len(mem.Records) != len(res.Outcomes) {
		t.Fatalf("streamed %d records for %d outcomes", len(mem.Records), len(res.Outcomes))
	}
	for i, rec := range mem.Records {
		if rec.PairIndex != res.Outcomes[i].PairIndex {
			t.Fatalf("record %d is pair %d, outcome is pair %d", i, rec.PairIndex, res.Outcomes[i].PairIndex)
		}
	}
	if agg.Agg.TotalProbes != res.TotalProbes {
		t.Fatalf("aggregate probes %d, result %d", agg.Agg.TotalProbes, res.TotalProbes)
	}
	if agg.Agg.LBTraces != res.LBTraces {
		t.Fatalf("aggregate LB traces %d, result %d", agg.Agg.LBTraces, res.LBTraces)
	}
	if agg.Agg.MeasuredDiamonds != len(res.Measured) {
		t.Fatalf("aggregate measured %d, result %d", agg.Agg.MeasuredDiamonds, len(res.Measured))
	}
	if len(agg.Agg.Distinct) != len(res.Distinct) {
		t.Fatalf("aggregate distinct %d, result %d", len(agg.Agg.Distinct), len(res.Distinct))
	}

	f, err := os.Open(jsonl.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var decoded []*traceio.SurveyRecord
	if err := traceio.DecodeSurveyRecords(f, func(sr *traceio.SurveyRecord) error {
		decoded = append(decoded, sr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem.Records, decoded) {
		t.Fatal("JSONL round trip does not reproduce the streamed records")
	}
}

// TestKillAndResumeByteIdentical is the acceptance test for
// checkpoint/resume: a survey killed mid-run and resumed must produce a
// final JSONL file byte-identical to — and a record aggregate deep-equal
// to — an uninterrupted run with the same seed, including re-emitting
// the records that were written after the last checkpoint (and are
// therefore truncated away on resume).
func TestKillAndResumeByteIdentical(t *testing.T) {
	t.Parallel()
	const (
		pairs = 60
		seed  = 33
		every = 7
		kill  = 23 // traces completed before the simulated kill
	)
	cfg := RunConfig{
		Algo: AlgoMDALite, Retries: 1, Workers: 4,
		Trace: mda.Config{Seed: seed},
	}
	dir := t.TempDir()

	// Uninterrupted reference run.
	refPath := filepath.Join(dir, "ref.jsonl")
	refCk := filepath.Join(dir, "ref.ckpt")
	refJSONL := NewJSONLSink(refPath)
	refAgg := NewAggregateSink()
	refCfg := cfg
	refCfg.Sinks = []Sink{refJSONL, refAgg}
	refCfg.Checkpoint = refCk
	refCfg.CheckpointEvery = every
	if _, err := Run(Generate(GenConfig{Seed: seed, Pairs: pairs}), refCfg); err != nil {
		t.Fatal(err)
	}
	if err := refJSONL.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the kill sink aborts after `kill` records, past
	// the last checkpoint at 21 so the tail must be truncated on resume.
	outPath := filepath.Join(dir, "out.jsonl")
	ckPath := filepath.Join(dir, "out.ckpt")
	jsonl1 := NewJSONLSink(outPath)
	killCfg := cfg
	killCfg.Sinks = []Sink{jsonl1, NewAggregateSink(), &killSink{after: kill}}
	killCfg.Checkpoint = ckPath
	killCfg.CheckpointEvery = every
	_, err := Run(Generate(GenConfig{Seed: seed, Pairs: pairs}), killCfg)
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted run returned %v, want simulated kill", err)
	}
	// Like an OS kill, whatever the file holds beyond the checkpoint is
	// untrusted; closing the sink here just flushes buffers so the
	// truncation path below has a real tail to discard.
	if err := jsonl1.Close(); err != nil {
		t.Fatal(err)
	}
	ck, err := traceio.ReadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != (kill/every)*every {
		t.Fatalf("checkpoint done = %d, want %d", ck.Done, (kill/every)*every)
	}

	// Resume in a "new process": a fresh universe (per-pair sessions are
	// consumed by tracing), the same files, Resume set.
	jsonl2 := NewJSONLSink(outPath)
	agg2 := NewAggregateSink()
	resumeCfg := cfg
	resumeCfg.Sinks = []Sink{jsonl2, agg2}
	resumeCfg.Checkpoint = ckPath
	resumeCfg.CheckpointEvery = every
	resumeCfg.Resume = true
	res2, err := Run(Generate(GenConfig{Seed: seed, Pairs: pairs}), resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res2.Outcomes) != pairs-ck.Done {
		t.Fatalf("resumed run traced %d pairs, want %d", len(res2.Outcomes), pairs-ck.Done)
	}

	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	outBytes, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, outBytes) {
		t.Fatal("resumed JSONL differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(refAgg.Agg, agg2.Agg) {
		t.Fatalf("resumed aggregate differs:\nref    %+v\nresume %+v", refAgg.Agg, agg2.Agg)
	}
	final, err := traceio.ReadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != pairs || final.Total != pairs {
		t.Fatalf("final checkpoint %d/%d, want %d/%d", final.Done, final.Total, pairs, pairs)
	}
}

// TestResumeRejectsOptionMismatch: splicing records from two different
// experiments into one file must be refused.
func TestResumeRejectsOptionMismatch(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "s.ckpt")
	outPath := filepath.Join(dir, "s.jsonl")
	base := RunConfig{
		Algo: AlgoMDALite, Retries: 1, Workers: 2,
		Trace: mda.Config{Seed: 5}, Checkpoint: ckPath, CheckpointEvery: 4,
	}
	run1 := base
	jsonl := NewJSONLSink(outPath)
	run1.Sinks = []Sink{jsonl, &killSink{after: 10}}
	if _, err := Run(Generate(GenConfig{Seed: 5, Pairs: 30}), run1); !errors.Is(err, errKilled) {
		t.Fatalf("setup run: %v", err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	run2 := base
	run2.Resume = true
	run2.Phi = 4 // different meshing budget: different experiment
	run2.Sinks = []Sink{NewJSONLSink(outPath)}
	if _, err := Run(Generate(GenConfig{Seed: 5, Pairs: 30}), run2); err == nil {
		t.Fatal("resume with mismatched options accepted")
	}
}

// TestResumeRefusesWrongRecordLog: resuming onto a file that is not the
// checkpoint's own record log must fail BEFORE the file is truncated.
func TestResumeRefusesWrongRecordLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "s.ckpt")
	logPath := filepath.Join(dir, "s.jsonl")
	base := RunConfig{
		Algo: AlgoMDALite, Retries: 1, Workers: 2,
		Trace: mda.Config{Seed: 6}, Checkpoint: ckPath, CheckpointEvery: 4,
	}
	run1 := base
	jsonl := NewJSONLSink(logPath)
	run1.Sinks = []Sink{jsonl, &killSink{after: 10}}
	if _, err := Run(Generate(GenConfig{Seed: 6, Pairs: 30}), run1); !errors.Is(err, errKilled) {
		t.Fatalf("setup run: %v", err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	// Point resume at an unrelated (and large enough) file.
	wrong := filepath.Join(dir, "wrong.jsonl")
	junk := bytes.Repeat([]byte("not a survey record\n"), 4096)
	if err := os.WriteFile(wrong, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	run2 := base
	run2.Resume = true
	wrongSink := NewJSONLSink(wrong)
	run2.Sinks = []Sink{wrongSink}
	if _, err := Run(Generate(GenConfig{Seed: 6, Pairs: 30}), run2); err == nil {
		t.Fatal("resume onto a foreign file accepted")
	}
	// The natural defer-Close pattern must not touch the file either: a
	// sink that never opened stays off the disk.
	if err := wrongSink.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(junk, after) {
		t.Fatal("refused resume still modified the foreign file")
	}
}

// TestResumeWithoutCheckpointFileIsFreshRun: Resume on a path that does
// not exist yet must degrade to a normal full run.
func TestResumeWithoutCheckpointFileIsFreshRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := RunConfig{
		Algo: AlgoMDALite, Retries: 1,
		Trace:      mda.Config{Seed: 9},
		Checkpoint: filepath.Join(dir, "none.ckpt"),
		Resume:     true,
		Sinks:      []Sink{NewJSONLSink(filepath.Join(dir, "none.jsonl"))},
	}
	res, err := Run(Generate(GenConfig{Seed: 9, Pairs: 20}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 20 {
		t.Fatalf("fresh run traced %d pairs", len(res.Outcomes))
	}
	if _, err := traceio.ReadCheckpoint(cfg.Checkpoint); err != nil {
		t.Fatalf("fresh run left no checkpoint: %v", err)
	}
}
