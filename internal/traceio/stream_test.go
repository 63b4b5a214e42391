package traceio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ReadSurveyRecords decodes one SurveyRecord per line until EOF.
func ReadSurveyRecords(r io.Reader) ([]*SurveyRecord, error) {
	var out []*SurveyRecord
	err := DecodeSurveyRecords(r, func(sr *SurveyRecord) error {
		out = append(out, sr)
		return nil
	})
	return out, err
}

func sampleRecord(i int) *SurveyRecord {
	return &SurveyRecord{
		PairIndex: i,
		HasLB:     i%2 == 0,
		Trace: JSONTrace{
			Src: "192.0.2.1", Dst: "203.0.113.9", Algorithm: "mda",
			Probes: uint64(100 + i), Reached: true,
			Vertices: []JSONVertex{{Addr: "10.0.0.1", Hop: 0}, {Addr: "*", Hop: 1}},
			Edges:    []JSONEdge{{From: 0, To: 1}},
		},
		Diamonds: []SurveyDiamond{{
			Div: "10.0.0.1", Conv: "10.0.0.9",
			MaxLength: 2, MaxWidth: 3, Meshed: true, MeshedRatio: 0.5,
			MaxProbDiff:   0.125,
			MeshMissProbs: []float64{0.25, 0.0625},
		}},
	}
}

// TestSurveyRecordRoundTrip: encode → decode → encode must be
// byte-identical, the property resume relies on when it re-emits records
// into a truncated log.
func TestSurveyRecordRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	want := []*SurveyRecord{sampleRecord(0), sampleRecord(1), sampleRecord(2)}
	for _, sr := range want {
		if err := sr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	first := append([]byte(nil), buf.Bytes()...)

	got, err := ReadSurveyRecords(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded records differ:\nwant %+v\ngot  %+v", want, got)
	}
	var again bytes.Buffer
	for _, sr := range got {
		if err := sr.WriteJSONL(&again); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("re-encoded JSONL differs from the original bytes")
	}
}

func TestJSONLWriterOffsetAndResume(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	jw, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := jw.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := jw.Offset()
	// Two more records beyond the "checkpoint", then a torn partial line:
	// everything past durable must be discarded on resume.
	for i := 3; i < 5; i++ {
		if err := jw.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"pair_index": 99, "tr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jw2, err := OpenJSONLAt(path, durable)
	if err != nil {
		t.Fatal(err)
	}
	if jw2.Offset() != durable {
		t.Fatalf("resumed offset %d, want %d", jw2.Offset(), durable)
	}
	for i := 3; i < 5; i++ {
		if err := jw2.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSurveyRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("resumed log does not decode cleanly: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("resumed log has %d records, want 5", len(recs))
	}
	for i, sr := range recs {
		if sr.PairIndex != i {
			t.Fatalf("record %d has pair index %d", i, sr.PairIndex)
		}
	}
}

// TestValidateJSONLPrefix: the pre-truncation consistency check must
// accept the durable prefix and reject wrong counts, torn prefixes and
// short files — all without modifying the file.
func TestValidateJSONLPrefix(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	jw, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := jw.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	off := jw.Offset()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := ValidateJSONLPrefix(path, off, 3); err != nil {
		t.Fatalf("valid prefix rejected: %v", err)
	}
	if err := ValidateJSONLPrefix(path, off, 5); err == nil {
		t.Fatal("wrong record count accepted")
	}
	if err := ValidateJSONLPrefix(path, off-2, 3); err == nil {
		t.Fatal("torn prefix accepted")
	}
	if err := ValidateJSONLPrefix(path, off+100, 3); err == nil {
		t.Fatal("offset beyond file size accepted")
	}
	// The empty-log-with-claimed-records case (checkpoint written
	// without a record log, resumed onto a fresh -out path).
	if err := ValidateJSONLPrefix(path, 0, 3); err == nil {
		t.Fatal("zero-offset prefix with claimed records accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("validation modified the file")
	}
}

func TestOpenJSONLAtRejectsShortFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJSONLAt(path, 1000); err == nil {
		t.Fatal("expected error for offset beyond file size")
	}
}

func TestCheckpointRoundTripAndValidation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "survey.ckpt")
	ck := &Checkpoint{
		Kind: "survey", OptionsHash: 0xdeadbeef, Seed: 42,
		Total: 1000, Done: 250, Offset: 123456,
	}
	if err := ck.WriteAtomic(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("checkpoint round trip: want %+v, got %+v", ck, got)
	}
	// No temp files may survive the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after atomic write, want 1", len(entries))
	}

	if _, err := ReadCheckpoint(filepath.Join(dir, "missing.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: got %v, want not-exist", err)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"done":9,"total":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("inconsistent checkpoint (done > total) accepted")
	}
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
	if err := os.WriteFile(path, []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("content %q", data)
	}
}
