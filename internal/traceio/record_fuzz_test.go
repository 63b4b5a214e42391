package traceio_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/mda"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// realRecord traces the first pair of a small generated universe and
// returns its record line; multilevel adds the router-level fields.
func realRecord(f *testing.F, algo survey.Algo) []byte {
	f.Helper()
	mem := &survey.MemorySink{}
	_, err := survey.Run(survey.Generate(survey.GenConfig{Seed: 7, Pairs: 30}), survey.RunConfig{
		Algo: algo, OnlyLB: true, SpanCount: 3, Retries: 1, Rounds: 2,
		Trace: mda.Config{Seed: 7}, Sinks: []survey.Sink{mem},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range mem.Records {
		if algo != survey.AlgoMultilevel || len(rec.Routers) > 0 {
			var b bytes.Buffer
			if err := rec.WriteJSONL(&b); err != nil {
				f.Fatal(err)
			}
			return b.Bytes()
		}
	}
	f.Fatalf("no %v record with alias sets", algo)
	return nil
}

// FuzzSurveyRecord holds the record decoder to its failure behaviour:
// decoding never panics; a record that decodes re-encodes to a byte
// fixed point; and Graph and atlas ingest of any record the JSON layer
// accepts, checked or not, return an error or succeed without
// panicking. Seeded with a real record of each level, the three
// poisons a hostile fleet runner can ship (a malformed address, a
// successor index naming no vertex, too many hops), a negative
// successor index and 300 empty hops. CI's fuzz-smoke job runs it for a
// short budget on every PR; locally:
//
//	go test -run='^$' -fuzz=FuzzSurveyRecord -fuzztime=30s ./internal/traceio
func FuzzSurveyRecord(f *testing.F) {
	ip := realRecord(f, survey.AlgoMDA)
	f.Add(ip)
	f.Add(realRecord(f, survey.AlgoMultilevel))
	f.Add(bytes.Replace(ip, []byte(`"hops":[["`), []byte(`"hops":[["999.`), 1))
	f.Add(bytes.Replace(ip, []byte(`"succ":[[`), []byte(`"succ":[[100000,`), 1))
	f.Add(bytes.Replace(ip, []byte(`"hops":[`), []byte(`"hops":[`+strings.Repeat(`[],`, 255)), 1))
	f.Add([]byte(`{"hops":[["10.0.0.1"]],"succ":[[-1]]}`))
	f.Add([]byte(`{"hops":[` + strings.TrimSuffix(strings.Repeat(`[],`, 300), ",") + `],"succ":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var first bytes.Buffer
		_ = traceio.DecodeSurveyRecords(bytes.NewReader(data), func(rec *traceio.SurveyRecord) error {
			if _, err := rec.Graph(); err != nil {
				t.Fatalf("a decoded record fails Graph: %v", err)
			}
			if err := atlas.New(atlas.Options{}).AddRecord(rec); err != nil {
				t.Fatalf("a decoded record fails atlas ingest: %v", err)
			}
			return rec.WriteJSONL(&first)
		})
		var again bytes.Buffer
		if err := traceio.DecodeSurveyRecords(bytes.NewReader(first.Bytes()), func(rec *traceio.SurveyRecord) error {
			return rec.WriteJSONL(&again)
		}); err != nil {
			t.Fatalf("re-encoded records fail to decode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("re-encoding is not a byte fixed point:\n%s\n%s", first.Bytes(), again.Bytes())
		}

		// The same bytes through the JSON layer alone, skipping the
		// structural checks: Graph and ingest must refuse, not panic.
		var raw traceio.SurveyRecord
		if json.Unmarshal(data, &raw) == nil {
			if _, err := raw.Graph(); err == nil {
				_ = atlas.New(atlas.Options{}).AddRecord(&raw)
			} else if err := atlas.New(atlas.Options{}).AddRecord(&raw); err == nil {
				t.Fatal("atlas ingest accepted a record Graph refuses")
			}
		}
	})
}
