package traceio

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// checkRecordDecoder holds the hand parser to its encoder and to
// encoding/json on one line (without its '\n'): whatever it accepts
// must re-encode to exactly the line, and json.Unmarshal must decode the
// line to the same value, nil and empty lists included. It reports
// whether the parser accepted.
func checkRecordDecoder(t *testing.T, line []byte) bool {
	t.Helper()
	var d recordParser
	var got SurveyRecord
	if d.parse(string(line), &got) != nil {
		return false
	}
	if back, err := appendRecordLine(nil, &got); err != nil || !bytes.Equal(back, append(slices.Clip(line), '\n')) {
		t.Fatalf("record line %q accepted, but it re-encodes to %q (error %v)", line, back, err)
	}
	var want SurveyRecord
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("hand parser accepted record line %q that encoding/json rejects: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record line %q:\nhand parser   %#v\nencoding/json %#v", line, got, want)
	}
	return true
}

// checkRecordStream holds DecodeSurveyRecords to the one grammar on
// arbitrary bytes: the records it hands over re-encode to a prefix of
// data, all of it when it reports no error; when it does report one,
// the line after that prefix is the one it refused: it has no '\n',
// or the parser refuses it, or its record fails Check.
func checkRecordStream(t *testing.T, data []byte) {
	t.Helper()
	var back []byte
	err := DecodeSurveyRecords(bytes.NewReader(data), func(sr *SurveyRecord) error {
		var err error
		back, err = appendRecordLine(back, sr)
		return err
	})
	rest, ok := bytes.CutPrefix(data, back)
	if !ok {
		t.Fatalf("stream %q: records re-encode to %q, not a prefix", data, back)
	}
	if err == nil {
		if len(rest) > 0 {
			t.Fatalf("stream %q: no error, but %q was not handed over", data, rest)
		}
		return
	}
	line, _, complete := bytes.Cut(rest, []byte("\n"))
	var sr SurveyRecord
	if len(rest) == 0 || complete && new(recordParser).parse(string(line), &sr) == nil && sr.Check() == nil {
		t.Fatalf("stream %q: error %v, but the next line %q is a good record", data, err, line)
	}
}

// checkRecordEncoder holds appendRecordLine to json.Marshal plus '\n'
// and to the parser: it refuses a record exactly when the parser
// refuses json.Marshal's line (or json.Marshal has none), and the
// parser takes back every line it writes.
func checkRecordEncoder(t *testing.T, sr *SurveyRecord) {
	t.Helper()
	got, gotErr := appendRecordLine(nil, sr)
	want, wantErr := json.Marshal(sr)
	taken := wantErr == nil && new(recordParser).parse(string(want), new(SurveyRecord)) == nil
	if (gotErr == nil) != taken {
		t.Fatalf("%#v: hand encoder error %v, json.Marshal error %v, parser takes json.Marshal's line: %v", sr, gotErr, wantErr, taken)
	}
	if gotErr != nil {
		return
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("hand encoder %q, json.Marshal %q", got, want)
	}
	if !checkRecordDecoder(t, got[:len(got)-1]) {
		t.Fatalf("hand parser refused its own encoder's line %q", got)
	}
}

// mustRefuseRecords are record streams that encoding/json reads but
// WriteJSONL never writes: CRLF line ends, a blank line, a pretty-printed
// record, an unknown field, a leading zero in an address and in a
// number, and a last line with no '\n'.
func mustRefuseRecords(tb testing.TB, canonical []byte) [][]byte {
	pretty, err := json.MarshalIndent(sampleRecord(0), "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		bytes.ReplaceAll(canonical, []byte("\n"), []byte("\r\n")),
		append([]byte("\n"), canonical...),
		append(pretty, '\n'),
		bytes.Replace(canonical, []byte(`{"pair_index"`), []byte(`{"extra":1,"pair_index"`), 1),
		bytes.Replace(canonical, []byte(`"10.0.0.1"]`), []byte(`"010.0.0.1"]`), 1),
		bytes.Replace(canonical, []byte(`"probes":100`), []byte(`"probes":0100`), 1),
		bytes.TrimSuffix(canonical, []byte("\n")),
	}
}

// FuzzRecordLines is the oracle for the hand-written record line codec.
// For arbitrary bytes, whatever the hand parser accepts as a line
// re-encodes to exactly that line and decodes to exactly what
// json.Unmarshal gives, and DecodeSurveyRecords hands over only records
// that re-encode to the bytes they were read from, refusing everything
// else (the must-refuse seeds are checked before fuzzing). For records
// built from arbitrary strings, integers and float bits,
// appendRecordLine writes exactly json.Marshal's bytes, refuses exactly
// the records whose json.Marshal line the parser refuses, and the
// parser takes back every line it writes. CI's fuzz-smoke job runs it
// for a short budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzRecordLines$' -fuzztime=30s ./internal/traceio
func FuzzRecordLines(f *testing.F) {
	canonical := func(sr *SurveyRecord) []byte {
		b, err := appendRecordLine(nil, sr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	r0, r1 := canonical(sampleRecord(0)), canonical(sampleRecord(1))
	for _, data := range mustRefuseRecords(f, r0) {
		if err := DecodeSurveyRecords(bytes.NewReader(data), func(*SurveyRecord) error { return nil }); err == nil {
			f.Fatalf("stream %q accepted", data)
		}
		f.Add(data, "a\r", int64(1), uint64(0), uint64(1))
	}
	for _, line := range [][]byte{
		r0, append(r0, r1...), bytes.TrimSuffix(r1, []byte("\n")),
		bytes.ReplaceAll(r0, []byte("\n"), []byte("\r\n")),
		[]byte(`{"pair_index":0,"has_lb":false,"src":"","dst":"","algorithm":"","probes":0,"reached":false,"hops":[],"succ":null}` + "\n"),
		[]byte(`{"pair_index":-0,"has_lb":false,"src":"","dst":"","algorithm":"","probes":0,"reached":false,"hops":[],"succ":[]}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a","dst":"b","algorithm":"mda","probes":1,"reached":true,"switched_to_mda":false,"hops":[["*","0.0.0.0"]],"succ":[null,[]],"routers":[],"alias_probes":0,"diamonds":[],"prior_hops":0,"prior_stale":false}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a","dst":"b","algorithm":"mda","probes":18446744073709551616,"reached":true,"hops":[["010.0.0.1"]],"succ":[[2147483648]]}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a","dst":"b","algorithm":"mda","probes":1,"reached":true,"hops":[["10.0.0.1x,"10.0.0.2"]],"succ":[[01],[999999999,1000000000]]}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a","dst":"b","algorithm":"mda","probes":1,"reached":true,"hops":[["10.0.0.1"]],"succ":[[01]]}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a","dst":"b","algorithm":"mda","probes":1,"reached":true,"hops":[["10.0.0.1"]],"succ":[[2147483648]]}`),
		[]byte(`{"pair_index":1,"has_lb":true,"src":"a\u0041","dst":"b","algorithm":"mda","probes":1,"reached":true,"hops":[],"succ":[],"diamonds":[{"div":"","conv":"","max_length":0,"max_width":0,"max_width_asymmetry":0,"meshed":false,"ratio_meshed_hops":1.50,"uniform":false,"max_prob_diff":1E2,"mesh_miss_probs":[]}]}`),
	} {
		f.Add(line, "10.0.0.1", int64(7), math.Float64bits(0.5), math.Float64bits(1.0/3))
	}
	for _, a := range append([]string{"1.2.3.04", "1..3.4", "0.0.0.1", "*1"}, addrSpellings...) {
		line := bytes.Replace(r0, []byte(`"10.0.0.1"]`), []byte(`"`+a+`"]`), 1)
		f.Add(line, "*", int64(-1), uint64(0), uint64(1))
	}
	for _, x := range []float64{5e-324, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 123456789, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		f.Add([]byte(nil), "a<b>&c\"\\", int64(math.MinInt64), math.Float64bits(x), math.Float64bits(-x))
	}
	f.Add([]byte("\n\n"), "\xff\x00", int64(math.MaxInt32)+1, uint64(0), uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, s string, n int64, bits1, bits2 uint64) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkRecordDecoder(t, line)
		}
		checkRecordStream(t, data)

		x, y := math.Float64frombits(bits1), math.Float64frombits(bits2)
		addr := packet.Addr(uint32(n))
		full := &SurveyRecord{
			PairIndex: int(n), HasLB: n%2 == 0, Src: s, Dst: strings.ToUpper(s), Algorithm: s,
			Probes: uint64(n), Reached: true, Switched: n%3 == 0,
			Hops:        addrLists{{addr, topo.StarAddr}, {}},
			Succ:        [][]int32{{int32(n), int32(n >> 32)}, nil, {}},
			Routers:     addrLists{{addr}},
			AliasProbes: uint64(n) >> 1,
			Diamonds: []SurveyDiamond{
				{Div: s, Conv: s, MaxLength: int(n), MaxWidth: -int(n), Asymmetry: int(n >> 8),
					Meshed: true, MeshedRatio: x, MaxProbDiff: y, MeshMissProbs: []float64{y, x}},
				{MeshMissProbs: []float64{}},
			},
			PriorHops: int(n >> 16), PriorStale: n%5 == 0,
		}
		for _, sr := range []*SurveyRecord{
			full,
			{Src: s, Hops: addrLists{}, Succ: [][]int32{}, Routers: addrLists{}, Diamonds: []SurveyDiamond{}},
			{PairIndex: int(n)},
		} {
			checkRecordEncoder(t, sr)
		}
	})
}
