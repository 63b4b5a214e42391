package survey

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/mda"
	"mmlpt/internal/pin"
)

// Determinism guard: a survey's streamed JSONL record log AND its atlas
// snapshot must be byte-identical across worker counts. This is the
// regression net for future map-iteration leaks of the AdoptStarFlows
// kind (PR 2): any nondeterminism in discovery order, record encoding,
// or the atlas's canonical merge shows up here as a byte diff.
func TestSurveyAndAtlasByteIdenticalAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multilevel survey sweep is slow; skipped with -short")
	}
	t.Parallel()

	var refJSONL, refSnapshot []byte
	for _, workers := range []int{1, 8, 3} {
		u := Generate(GenConfig{Seed: 7, Pairs: 30})
		path := filepath.Join(t.TempDir(), "records.jsonl")
		jsonl := NewJSONLSink(path)
		as := NewAtlasSink(atlas.Options{})
		cfg := RunConfig{
			Algo: AlgoMultilevel, OnlyLB: true, Retries: 1,
			Rounds: 2, probesPerRound: 10,
			Trace:   mda.Config{Seed: 7},
			Workers: workers,
			Sinks:   []Sink{jsonl, as},
		}
		if _, err := Run(u, cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		gotJSONL, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := as.Atlas.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		if refJSONL == nil {
			refJSONL, refSnapshot = gotJSONL, snap.Bytes()
			if len(refJSONL) == 0 {
				t.Fatal("reference run produced no records; the guard would be vacuous")
			}
			pin.Check(t, "survey/multilevel/atlas", refSnapshot)
			pin.Check(t, "survey/multilevel/content", []byte(recordContent(t, refJSONL)))
			pin.Check(t, "survey/multilevel/jsonl", refJSONL)
			continue
		}
		if !bytes.Equal(gotJSONL, refJSONL) {
			t.Errorf("workers=%d: JSONL differs from workers=1 reference", workers)
		}
		if !bytes.Equal(snap.Bytes(), refSnapshot) {
			t.Errorf("workers=%d: atlas snapshot differs from workers=1 reference", workers)
		}
	}

	// And the snapshot round-trips byte-stably through disk: a saved
	// snapshot is Compact's fixed point.
	dir := t.TempDir()
	saved, again := filepath.Join(dir, "ref.atlas"), filepath.Join(dir, "again.atlas")
	if err := os.WriteFile(saved, refSnapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atlas.Compact(again, saved, nil, atlas.Options{}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, refSnapshot) {
		t.Error("Compact(Save(atlas)) is not byte-stable")
	}
}
