package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
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
// of a stream: canonical lines, one record per '\n'-terminated line, are
// the records they hold (pinned: the records handed over, re-encoded);
// any other form is refused at its first line, after the records
// before it, with an error naming the record and the cause.
// encoding/json reads most of the refused forms; they are refused
// because a fleet merge tees shard bytes into its record log, so a form
// no writer emits would make the merged log differ from the
// single-machine run's.
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
		name, in string
		records  int
		err      string
	}{
		{"canonical", r0 + l1 + r2, 3, ""},
		{"succ null, no vertices", r0 + line(empty) + r2, 3, ""},
		{"pretty-printed", string(pretty) + "\n" + l1, 0,
			"traceio: record 0: unexpected end of JSON input"},
		{"two records on one line", strings.TrimSuffix(r0, "\n") + l1 + r2, 0,
			"traceio: record 0: invalid character '{' after top-level value"},
		{"CRLF", strings.ReplaceAll(r0+l1+r2, "\n", "\r\n"), 0,
			fmt.Sprintf("traceio: record 0: not canonical at byte %d", len(r0)-1)},
		{"blank line", r0 + "\n" + l1, 1,
			"traceio: record 1: blank line"},
		{"no final newline", r0 + strings.TrimSuffix(l1, "\n"), 1,
			"traceio: record 1: no final newline"},
		{"truncated last line", r0 + l1[:len(l1)/2], 1,
			"traceio: record 1: unexpected end of JSON input"},
		{"unknown field", r0 + strings.Replace(l1, `,"probes"`, `,"bogus":[1,{"x":null}],"probes"`, 1) + r2, 1,
			fmt.Sprintf("traceio: record 1: not canonical at byte %d", strings.Index(l1, `,"probes"`))},
		{"leading-zero address", r0 + strings.Replace(l1, `"10.0.0.1"]`, `"010.0.0.1"]`, 1) + r2, 1,
			`traceio: record 1: packet: "010.0.0.1" is not a canonical dotted quad`},
		{"zero address as a star", strings.Replace(r0, `"hops":[["10.0.0.1"],["*"]]`, `"hops":[["*","0.0.0.0"]]`, 1) + r2, 0,
			`traceio: record 0: a star is written "*", not 0.0.0.0`},
		{"non-canonical floats", r0 + strings.Replace(strings.Replace(l1, `"ratio_meshed_hops":0.5`, `"ratio_meshed_hops":0.50`, 1), `[1e-7,`, `[1.0E-07,`, 1) + r2, 1,
			fmt.Sprintf("traceio: record 1: not canonical at byte %d", strings.Index(l1, `0.5,`))},
		{"int32 out of range", r0 + strings.Replace(l1, `"succ":[[1],[]]`, `"succ":[[4294967297],[]]`, 1) + r2, 1,
			"traceio: record 1: json: cannot unmarshal number 4294967297 into Go struct field SurveyRecord.succ of type int32"},
		{"float into uint64", r0 + strings.Replace(l1, `"probes":101`, `"probes":1.01e2`, 1) + r2, 1,
			"traceio: record 1: json: cannot unmarshal number 1.01e2 into Go struct field SurveyRecord.probes of type uint64"},
		{"octet out of range", r0 + strings.Replace(l1, `"10.0.0.1"]`, `"10.0.0.300"]`, 1) + r2, 1,
			`traceio: record 1: packet: octet out of range in "10.0.0.300"`},
		{"succ null, two vertices", r0 + strings.Replace(l1, `"succ":[[1],[]]`, `"succ":null`, 1) + r2, 1,
			"record 1 (pair 1): traceio: 0 successor lists for 2 vertices"},
		{"successor out of range", r0 + l1 + strings.Replace(r2, `"succ":[[1],[]]`, `"succ":[[2],[]]`, 1), 2,
			"record 2 (pair 2): traceio: vertex 0: successor index 2 outside [0, 2)"},
	} {
		var out bytes.Buffer
		n := 0
		err := DecodeSurveyRecords(strings.NewReader(c.in), func(sr *SurveyRecord) error {
			n++
			return sr.WriteJSONL(&out)
		})
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if n != c.records || gotErr != c.err {
			t.Errorf("%s: %d records, error %q; pinned %d, %q", c.name, n, gotErr, c.records, c.err)
		}
		if !strings.HasPrefix(c.in, out.String()) {
			t.Errorf("%s: the records handed over re-encode to other bytes than they were read from", c.name)
		}
		if err == nil {
			pin.Check(t, "traceio/records/"+c.name, out.Bytes())
		}
	}
}

// TestJSONLWriterOffset: the writer's byte count is the length of the
// file it closes, and the file decodes to the records written, in order.
func TestJSONLWriterOffset(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	jw, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := jw.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if jw.Offset() != int64(len(data)) {
		t.Fatalf("offset %d, file holds %d bytes", jw.Offset(), len(data))
	}
	recs, err := ReadSurveyRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("log does not decode cleanly: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("log has %d records, want 5", len(recs))
	}
	for i, sr := range recs {
		if sr.PairIndex != i {
			t.Fatalf("record %d has pair index %d", i, sr.PairIndex)
		}
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
