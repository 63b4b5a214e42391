package traceio_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/survey"
	"mmlpt/internal/topo"
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

// snapshot is the atlas's snapshot bytes, or the error writing them.
func snapshot(a *atlas.Atlas) ([]byte, error) {
	var b bytes.Buffer
	_, err := a.WriteTo(&b)
	return b.Bytes(), err
}

// viaGraph ingests rec through the graph it rebuilds: AddGraph, then
// the alias sets, diamonds and identity AddRecord would add.
func viaGraph(rec *traceio.SurveyRecord) *atlas.Atlas {
	a := atlas.New(atlas.Options{})
	g, _ := rec.Graph() // the caller's decode ran the same check
	a.AddGraph(rec.PairIndex, g)
	for _, r := range rec.Routers {
		a.AddAliasSet(r)
	}
	for _, d := range rec.Diamonds {
		a.AddDiamond(rec.PairIndex, d)
	}
	a.AddPair(rec.PairIndex, rec.Src, rec.Dst)
	return a
}

// FuzzSurveyRecord holds the record decoder to its failure behaviour:
// decoding never panics; a record that decodes re-encodes to a byte
// fixed point, and ingests into the same snapshot through AddRecord as
// through AddGraph of its rebuilt graph; and Graph and atlas ingest of
// any record the JSON layer accepts, checked or not, return an error or
// succeed without panicking. Seeded with a real record of each level, the three
// poisons a hostile fleet runner can ship (a malformed address, a
// successor index naming no vertex, too many hops), a negative
// successor index and 300 empty hops, then with valid records of
// shapes the survey never produces, where the two ingest paths could
// part. CI's fuzz-smoke job runs it for a short budget on every PR;
// locally:
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

	const star = topo.StarAddr
	a, b, c := packet.Addr(0x0a000001), packet.Addr(0x0a000002), packet.Addr(0x0a000003)
	for _, shape := range []struct {
		hops [][]packet.Addr
		succ [][]int32
	}{
		{[][]packet.Addr{{a}, {b, b}, {c}}, [][]int32{{1, 2}, {3}, {3}, {}}},       // one address twice at a hop
		{[][]packet.Addr{{a}, {b}, {a}}, [][]int32{{1}, {2}, {}}},                  // one address at two hops
		{[][]packet.Addr{{a}, {b}, {c}}, [][]int32{{1, 2}, {2}, {}}},               // an edge skipping a hop
		{[][]packet.Addr{{a}, {star}, {c}}, [][]int32{{1}, {2}, {}}},               // edges into and out of a star
		{[][]packet.Addr{{a}, {star, star}, {c}}, [][]int32{{1, 2}, {3}, {3}, {}}}, // a hop of only stars
		{[][]packet.Addr{}, [][]int32{}},                                           // zero hops
	} {
		rec := traceio.SurveyRecord{PairIndex: 4, Src: "192.0.2.1", Dst: "203.0.113.1", Hops: shape.hops, Succ: shape.succ}
		var line bytes.Buffer
		if err := rec.WriteJSONL(&line); err != nil {
			f.Fatal(err)
		}
		f.Add(line.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var first bytes.Buffer
		_ = traceio.DecodeSurveyRecords(bytes.NewReader(data), func(rec *traceio.SurveyRecord) error {
			if _, err := rec.Graph(); err != nil {
				t.Fatalf("a decoded record fails Graph: %v", err)
			}
			direct := atlas.New(atlas.Options{})
			if err := direct.AddRecord(rec); err != nil {
				t.Fatalf("a decoded record fails atlas ingest: %v", err)
			}
			got, gotErr := snapshot(direct)
			want, wantErr := snapshot(viaGraph(rec))
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("AddRecord and AddGraph disagree:\n%s (%v)\n%s (%v)", got, gotErr, want, wantErr)
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
