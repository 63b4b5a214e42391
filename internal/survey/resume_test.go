package survey_test

// A survey resumes through dispatch.RunLocal, which keeps its progress
// in a fleet manifest and one shard per unit. These tests pin what a
// resumed survey must produce; they live beside the survey they resume
// as an external test package, since dispatch imports survey.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/dispatch"
	"mmlpt/internal/mda"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// errKilled simulates the process dying mid-survey: a sink that fails
// after a fixed number of records aborts the run exactly like a kill
// would, except the test regains control to run the resume.
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

// killedRun runs the survey with its progress in dir, cut into units of
// unitSize jobs, and kills it after kill records.
func killedRun(t *testing.T, u *survey.Universe, rc survey.RunConfig, dir string, unitSize, kill int) {
	t.Helper()
	rc.Sinks = []survey.Sink{&killSink{after: kill}}
	_, err := dispatch.RunLocal(u, rc, dispatch.CoordinatorConfig{Dir: dir, UnitSize: unitSize})
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted run returned %v, want simulated kill", err)
	}
}

// plainRun runs the survey without durable progress and returns its
// record log and aggregate.
func plainRun(t *testing.T, u *survey.Universe, rc survey.RunConfig) ([]byte, *survey.RecordAggregate) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plain.jsonl")
	jsonl, agg := survey.NewJSONLSink(path), survey.NewAggregateSink()
	rc.Sinks = []survey.Sink{jsonl, agg}
	if _, err := survey.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path), agg.Agg
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKillAndResumeByteIdentical is the acceptance test for resume: a
// survey killed mid-unit and resumed must produce a final JSONL file
// byte-identical to — and a record aggregate deep-equal to — an
// uninterrupted run with the same seed, re-tracing the partial unit the
// kill cut short and only what follows it.
func TestKillAndResumeByteIdentical(t *testing.T) {
	t.Parallel()
	const (
		pairs    = 60
		seed     = 33
		unitSize = 7
		kill     = 23 // traces completed before the simulated kill
	)
	cfg := survey.RunConfig{
		Algo: survey.AlgoMDALite, Retries: 1, Workers: 4,
		Trace: mda.Config{Seed: seed},
	}
	refBytes, refAgg := plainRun(t, survey.Generate(survey.GenConfig{Seed: seed, Pairs: pairs}), cfg)

	// Interrupted run: the kill lands after 23 records, past the last
	// durable unit boundary at 21, so unit 3 is lost half traced.
	dir := t.TempDir()
	killedRun(t, survey.Generate(survey.GenConfig{Seed: seed, Pairs: pairs}), cfg, dir, unitSize, kill)
	m, err := traceio.ReadFleetManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	durable := 0
	for _, u := range m.Units {
		if u.State == traceio.UnitShipped {
			durable += u.Count
		}
	}
	if durable != (kill/unitSize)*unitSize {
		t.Fatalf("%d records durable after the kill, want %d", durable, (kill/unitSize)*unitSize)
	}

	// Resume in a "new process": a fresh universe (per-pair sessions are
	// consumed by tracing), the same directory, Resume set.
	outPath := filepath.Join(dir, "out.jsonl")
	traced := &survey.MemorySink{}
	resumeCfg := cfg
	resumeCfg.Sinks = []survey.Sink{traced}
	agg, err := dispatch.RunLocal(survey.Generate(survey.GenConfig{Seed: seed, Pairs: pairs}), resumeCfg,
		dispatch.CoordinatorConfig{Dir: dir, UnitSize: unitSize, OutJSONL: outPath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Records) != pairs-durable {
		t.Fatalf("resumed run traced %d pairs, want %d", len(traced.Records), pairs-durable)
	}
	if !bytes.Equal(refBytes, readFile(t, outPath)) {
		t.Fatal("resumed JSONL differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(refAgg, agg) {
		t.Fatalf("resumed aggregate differs:\nref    %+v\nresume %+v", refAgg, agg)
	}
	m, err = traceio.ReadFleetManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range m.Units {
		if u.State != traceio.UnitMerged {
			t.Fatalf("final manifest has unit %d %s, want every unit merged", u.ID, u.State)
		}
	}
}

// TestResumeRejectsOptionMismatch: splicing records from two different
// experiments into one survey must be refused.
func TestResumeRejectsOptionMismatch(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	base := survey.RunConfig{Algo: survey.AlgoMDALite, Retries: 1, Workers: 2, Trace: mda.Config{Seed: 5}}
	killedRun(t, survey.Generate(survey.GenConfig{Seed: 5, Pairs: 30}), base, dir, 4, 10)

	other := base
	other.Phi = 4 // different meshing budget: different experiment
	_, err := dispatch.RunLocal(survey.Generate(survey.GenConfig{Seed: 5, Pairs: 30}), other,
		dispatch.CoordinatorConfig{Dir: dir, UnitSize: 4, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume with mismatched options: %v, want an options mismatch", err)
	}
}

// TestResumeRefusesWrongRecordLog: a shard that is not its unit's record
// log — here the previous unit's records — is refused on resume: the
// unit is traced again, and the output is the uninterrupted run's.
func TestResumeRefusesWrongRecordLog(t *testing.T) {
	t.Parallel()
	cfg := survey.RunConfig{Algo: survey.AlgoMDALite, Retries: 1, Workers: 2, Trace: mda.Config{Seed: 6}}
	want, _ := plainRun(t, survey.Generate(survey.GenConfig{Seed: 6, Pairs: 30}), cfg)

	dir := t.TempDir()
	killedRun(t, survey.Generate(survey.GenConfig{Seed: 6, Pairs: 30}), cfg, dir, 4, 10)
	wrong := readFile(t, filepath.Join(dir, "unit-000000.jsonl"))
	if err := os.WriteFile(filepath.Join(dir, "unit-000001.jsonl"), wrong, 0o644); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	out := filepath.Join(dir, "out.jsonl")
	_, err := dispatch.RunLocal(survey.Generate(survey.GenConfig{Seed: 6, Pairs: 30}), cfg, dispatch.CoordinatorConfig{
		Dir: dir, UnitSize: 4, OutJSONL: out, Resume: true,
		Logf: func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "is unusable") {
		t.Errorf("resume did not report the wrong shard:\n%s", log.String())
	}
	if !bytes.Equal(readFile(t, out), want) {
		t.Fatal("resumed JSONL differs from the uninterrupted run")
	}
}

// TestResumeWithoutCheckpointFileIsFreshRun: Resume on a directory that
// does not exist yet must degrade to a normal full run.
func TestResumeWithoutCheckpointFileIsFreshRun(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "none")
	cfg := survey.RunConfig{Algo: survey.AlgoMDALite, Retries: 1, Trace: mda.Config{Seed: 9}}
	agg, err := dispatch.RunLocal(survey.Generate(survey.GenConfig{Seed: 9, Pairs: 20}), cfg,
		dispatch.CoordinatorConfig{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Records != 20 {
		t.Fatalf("fresh run folded %d records", agg.Records)
	}
	if _, err := traceio.ReadFleetManifest(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("fresh run left no manifest: %v", err)
	}
}

// parentFingerprint is Fingerprint(Generate(GenConfig{Seed: 3, Pairs:
// 12}), RunConfig{Algo: AlgoMDALite, Retries: 1, Trace: mda.Config{Seed:
// 3}}) at commit b6ec1af, the last commit writing the nested record
// layout.
const parentFingerprint = 0x8ecdec2d03fa8740

// TestRecordSchemaRefusesOlderLogs: the record layout is part of the
// options hash, so a manifest written for shards of the older layout —
// whose records this decoder would read as empty ones — is refused, and
// the shard is left as it was.
func TestRecordSchemaRefusesOlderLogs(t *testing.T) {
	t.Parallel()
	u := survey.Generate(survey.GenConfig{Seed: 3, Pairs: 12})
	cfg := survey.RunConfig{Algo: survey.AlgoMDALite, Retries: 1, Trace: mda.Config{Seed: 3}}
	if survey.Fingerprint(u, cfg) == parentFingerprint {
		t.Fatal("the options hash does not change with the record layout")
	}

	dir := t.TempDir()
	shard := filepath.Join(dir, "unit-000000.jsonl")
	old := []byte(`{"pair_index":0,"has_lb":false,"trace":{"src":"192.0.2.1","dst":"203.0.113.9","algorithm":"mda-lite",` +
		`"probes":40,"reached":true,"vertices":[{"addr":"10.0.0.1","hop":0}],"edges":[]}}` + "\n")
	if err := os.WriteFile(shard, old, 0o644); err != nil {
		t.Fatal(err)
	}
	total := survey.JobCount(u, cfg)
	m := &traceio.FleetManifest{
		OptionsHash: parentFingerprint, Seed: 3, Total: total, UnitSize: dispatch.DefaultUnitSize,
		Units: []traceio.FleetUnit{{Start: 0, Count: total, State: traceio.UnitShipped,
			Shard: filepath.Base(shard), Records: total}},
	}
	if err := m.WriteAtomic(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	_, err := dispatch.RunLocal(u, cfg, dispatch.CoordinatorConfig{Dir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("resume onto an older-layout shard: err = %v, want an options mismatch", err)
	}
	if !bytes.Equal(readFile(t, shard), old) {
		t.Fatal("the refused resume modified the older-layout shard")
	}
}
