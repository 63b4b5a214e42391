package traceio

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func sampleEvalRecord() *EvalRecord {
	return &EvalRecord{
		Scenario: "flow-wide", SeedIndex: 2, Seed: 0xdeadbeef, Pairs: 3, FlowBased: true,
		MDA: AlgoEval{Algo: "mda", Probes: 520, Reached: 3,
			VertexRecall: 1, EdgeRecall: 0.993, DiamondRecall: 1,
			VertexPrecision: 1, EdgePrecision: 0.875, FalseEdges: 2},
		MDALite: AlgoEval{Algo: "mda-lite", Probes: 200, Reached: 3, Switched: 1,
			VertexRecall: 1, EdgeRecall: 0.987, DiamondRecall: 1,
			VertexPrecision: 1, EdgePrecision: 1},
		ProbeSavings: 0.6153846153846154, RelativeEdgeRecall: 0.9939577039274925,
		MDALitePrior: AlgoEval{Algo: "mda-lite-prior", Probes: 90, Reached: 3,
			VertexRecall: 1, EdgeRecall: 0.987, DiamondRecall: 1,
			VertexPrecision: 1, EdgePrecision: 1, PriorHops: 7},
		MDALiteRetrace: AlgoEval{Algo: "mda-lite-retrace", Probes: 200, Reached: 3,
			VertexRecall: 1, EdgeRecall: 0.987, DiamondRecall: 1,
			VertexPrecision: 1, EdgePrecision: 1},
		PriorProbeSavings: 0.55, PriorRelativeEdgeRecall: 1,
	}
}

// Byte stability: encode → decode → re-encode must reproduce identical
// bytes, the property golden files and the cross-worker determinism
// guard rely on.
func TestEvalRecordByteStable(t *testing.T) {
	t.Parallel()
	var first bytes.Buffer
	if err := sampleEvalRecord().WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEvalRecords(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	var second bytes.Buffer
	if err := recs[0].WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode differs:\n%s\n%s", first.Bytes(), second.Bytes())
	}
	if !strings.HasSuffix(first.String(), "\n") || strings.Count(first.String(), "\n") != 1 {
		t.Fatalf("record is not one JSONL line: %q", first.String())
	}
}

// An eval record is read only in the form WriteJSONL writes: one line,
// its own encoding, every column present.
func TestReadEvalRecordsRefusesOtherForms(t *testing.T) {
	t.Parallel()
	var b bytes.Buffer
	if err := sampleEvalRecord().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	line := b.String()
	body := strings.TrimSuffix(line, "\n")
	for _, c := range []struct{ name, data string }{
		{"garbage", line + "not json\n"},
		{"unknown field", strings.Replace(line, `{"scenario"`, `{"extra":1,"scenario"`, 1)},
		{"two records on one line", body + body + "\n"},
		{"record split over lines", strings.Replace(line, `,"mdalite":`, ",\n\"mdalite\":", 1)},
		{"CRLF", body + "\r\n"},
		{"blank line", line + "\n"},
		{"no final newline", body},
		{"no mdalite_prior", regexp.MustCompile(`"mdalite_prior":\{[^}]*\},`).ReplaceAllString(line, "")},
	} {
		if _, err := ReadEvalRecords(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s: %q read without error", c.name, c.data)
		}
	}
}

// encodeEvalRecords renders records the way cmd/eval -out writes them.
func encodeEvalRecords(t *testing.T, recs []*EvalRecord) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		if err := r.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// FuzzEvalRecords holds the eval record decoder, which cmd/eval -golden
// runs over a file, to its failure behaviour: ReadEvalRecords never
// panics, and any stream it accepts re-encodes to a byte fixed point
// (encode ∘ decode ∘ encode = encode). Seeded with the first two lines
// of the committed golden. CI's fuzz-smoke job runs it for a short
// budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzEvalRecords$' -fuzztime=30s ./internal/traceio
func FuzzEvalRecords(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "eval_golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfterN(golden, []byte("\n"), 3)
	f.Add(bytes.Join(lines[:2], nil))
	f.Add([]byte(`{"scenario":"x","mda":{"probes":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadEvalRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encodeEvalRecords(t, recs)
		again, err := ReadEvalRecords(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-decoding an accepted stream: %v\n%s", err, once)
		}
		if twice := encodeEvalRecords(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nthen\n%s", once, twice)
		}
	})
}
