package traceio

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
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
		Src:       "192.0.2.1", Dst: "203.0.113.9", Algorithm: "mda",
		Probes: uint64(100 + i), Reached: true,
		Hops:    [][]packet.Addr{{packet.MustParseAddr("10.0.0.1")}, {topo.StarAddr}},
		Succ:    [][]int32{{1}, {}},
		Routers: [][]packet.Addr{{packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("10.0.0.2")}},
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

// TestDecodeSurveyRecordsStreamForms pins what DecodeSurveyRecords makes
// of streams that are not one canonical record per '\n'-terminated line:
// for each, the SHA-256 of the records it hands over, re-encoded, and
// the exact error. These are encoding/json's answers; a faster decoder
// must give the same ones for every input.
func TestDecodeSurveyRecordsStreamForms(t *testing.T) {
	t.Parallel()
	line := func(rec *SurveyRecord) string {
		var b bytes.Buffer
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	r0, r1, r2 := line(sampleRecord(0)), sampleRecord(1), line(sampleRecord(2))
	r1.Diamonds[0].MaxProbDiff = 1.0 / 3
	r1.Diamonds[0].MeshMissProbs = []float64{1e-7, 2.5e21, 5e-324}
	l1 := line(r1)
	empty := sampleRecord(3)
	empty.Hops, empty.Succ, empty.Routers = nil, nil, nil
	pretty, err := json.MarshalIndent(sampleRecord(0), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, in, sum, err string
	}{
		{"canonical", r0 + l1 + r2,
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"pretty-printed", string(pretty) + "\n" + l1,
			"44cc63c79d9649440d85963869e76bbb6fc09de4eae662415b7ca894ca0e8522", ""},
		{"two records on one line", strings.TrimSuffix(r0, "\n") + l1 + r2,
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"CRLF", strings.ReplaceAll(r0+l1+r2, "\n", "\r\n"),
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"blank lines", "\n" + r0 + "\n\n" + l1 + "\n",
			"44cc63c79d9649440d85963869e76bbb6fc09de4eae662415b7ca894ca0e8522", ""},
		{"no final newline", r0 + strings.TrimSuffix(l1, "\n"),
			"44cc63c79d9649440d85963869e76bbb6fc09de4eae662415b7ca894ca0e8522", ""},
		{"leading-zero address mid-stream", r0 + strings.Replace(l1, `"10.0.0.1"]`, `"010.0.0.1"]`, 1) + r2,
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"truncated last line", r0 + l1[:len(l1)/2],
			"ebfbf40d50fffd4a3de26b180ee99896a4efecb0e492cc558daf99a1481ee302", "unexpected EOF"},
		{"unknown field", r0 + strings.Replace(l1, `{"pair_index"`, `{"bogus":[1,{"x":null}],"pair_index"`, 1) + r2,
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"succ null, no vertices", r0 + line(empty) + r2,
			"2e1fbc97bc51b60427fb10ebd3d44a5acdb0c47419d989576241a716f7cdd30e", ""},
		{"succ null, two vertices", r0 + strings.Replace(l1, `"succ":[[1],[]]`, `"succ":null`, 1) + r2,
			"ebfbf40d50fffd4a3de26b180ee99896a4efecb0e492cc558daf99a1481ee302", "record 1 (pair 1): traceio: 0 successor lists for 2 vertices"},
		{"zero address as a star", strings.Replace(r0, `"hops":[["10.0.0.1"],["*"]]`, `"hops":[["*","0.0.0.0"]]`, 1) + r2,
			"acc38d0e40c65d1b51d3cea5d61a24131941fafbabf0b75c1197e8fae1dcbdb6", ""},
		{"numbering survives the switch", r0 + "\n" + l1 + strings.Replace(r2, `"succ":[[1],[]]`, `"succ":[[2],[]]`, 1),
			"44cc63c79d9649440d85963869e76bbb6fc09de4eae662415b7ca894ca0e8522", "record 2 (pair 2): traceio: vertex 0: successor index 2 outside [0, 2)"},
		{"int32 out of range", r0 + strings.Replace(l1, `"succ":[[1],[]]`, `"succ":[[4294967297],[]]`, 1) + r2,
			"ebfbf40d50fffd4a3de26b180ee99896a4efecb0e492cc558daf99a1481ee302", "json: cannot unmarshal number 4294967297 into Go struct field SurveyRecord.succ of type int32"},
		{"non-canonical floats", r0 + strings.Replace(strings.Replace(l1, `"ratio_meshed_hops":0.5`, `"ratio_meshed_hops":0.50`, 1), `[1e-7,`, `[1.0E-07,`, 1) + r2,
			"f887d7fdc83b4814a93dc033d60ffb85a61ee3f55a205f596cd0dc1eff239a2a", ""},
		{"float into uint64", r0 + strings.Replace(l1, `"probes":101`, `"probes":1.01e2`, 1) + r2,
			"ebfbf40d50fffd4a3de26b180ee99896a4efecb0e492cc558daf99a1481ee302", "json: cannot unmarshal number 1.01e2 into Go struct field SurveyRecord.probes of type uint64"},
		{"octet out of range", r0 + strings.Replace(l1, `"10.0.0.1"]`, `"10.0.0.300"]`, 1) + r2,
			"ebfbf40d50fffd4a3de26b180ee99896a4efecb0e492cc558daf99a1481ee302", "packet: octet out of range in \"10.0.0.300\""},
	} {
		var out bytes.Buffer
		err := DecodeSurveyRecords(strings.NewReader(c.in), func(sr *SurveyRecord) error {
			return sr.WriteJSONL(&out)
		})
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); sum != c.sum || gotErr != c.err {
			t.Errorf("%s: records %s, error %q; pinned %s, %q", c.name, sum, gotErr, c.sum, c.err)
		}
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
