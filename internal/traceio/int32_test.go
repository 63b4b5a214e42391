package traceio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestIntegersReadInInt32: the same durable bytes read the same on
// every GOARCH. An integer past int32, which a 32-bit int cannot hold,
// is refused on a 64-bit GOARCH too — in a record line, an atlas line
// and a fleet manifest — and int32's own bounds are taken everywhere.
func TestIntegersReadInInt32(t *testing.T) {
	t.Parallel()
	const (
		top   = "2147483647" // math.MaxInt32
		past  = "2147483648"
		floor = "-2147483648"
		below = "-2147483649"
	)

	line, err := appendRecordLine(nil, sampleRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		old, new string
		ok       bool
	}{
		{`"pair_index":1,`, `"pair_index":` + top + `,`, true},
		{`"pair_index":1,`, `"pair_index":` + past + `,`, false},
		{`"pair_index":1,`, `"pair_index":` + floor + `,`, true},
		{`"pair_index":1,`, `"pair_index":` + below + `,`, false},
		{`"max_length":`, `"max_length":` + past + `0`, false},
	} {
		if !bytes.Contains(line, []byte(c.old)) {
			t.Fatalf("%q not in %q", c.old, line)
		}
		in := bytes.Replace(line, []byte(c.old), []byte(c.new), 1)
		err := DecodeSurveyRecords(bytes.NewReader(in), func(*SurveyRecord) error { return nil })
		if (err == nil) != c.ok {
			t.Errorf("record with %s: error %v, want taken %v", c.new, err, c.ok)
		}
	}

	raw := sampleFixture().encode(t, 0)
	for _, c := range []struct {
		old, new string
		ok       bool
	}{
		{`"seen":[[3,3]]`, `"seen":[[` + top + `,3]]`, true},
		{`"seen":[[3,3]]`, `"seen":[[` + past + `,3]]`, false},
		{`"seen":[[3,3]]`, `"seen":[[3,` + past + `]]`, false},
		{`"pairs":[0,3]`, `"pairs":[0,` + past + `]`, false},
		{`"max_width":4`, `"max_width":` + past, false},
	} {
		err := openAndVerify([]byte(corrupt(t, raw, c.old, c.new)))
		if (err == nil) != c.ok {
			t.Errorf("atlas with %s: error %v, want taken %v", c.new, err, c.ok)
		}
	}

	dir := t.TempDir()
	for i, c := range []struct {
		total, unitSize, count, records, attempts string
		ok                                        bool
	}{
		{"5", "5", "5", "0", "1", true},
		{top, "5", top, "0", "1", true},
		{past, "5", past, "0", "1", false},
		{"5", past, "5", "0", "1", false},
		{"5", "5", "5", past, "1", false},
		{"5", "5", "5", "0", past, false},
	} {
		path := filepath.Join(dir, strconv.Itoa(i)+".json")
		data := fmt.Sprintf(`{"version":1,"kind":"fleet-survey","options_hash":0,"seed":0,"total":%s,"unit_size":%s,`+
			`"units":[{"id":0,"start":0,"count":%s,"state":"unclaimed","records":%s,"attempts":%s}]}`,
			c.total, c.unitSize, c.count, c.records, c.attempts)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFleetManifest(path)
		if (err == nil) != c.ok || err != nil && !strings.Contains(err.Error(), past) {
			t.Errorf("manifest %s: error %v, want taken %v", data, err, c.ok)
		}
	}
}

// TestWritersRefuseWideIntegers: a writer refuses a value past int32
// that an int holds on a 64-bit GOARCH, so it never writes bytes its
// reader refuses.
func TestWritersRefuseWideIntegers(t *testing.T) {
	t.Parallel()
	if strconv.IntSize == 32 {
		t.Skip("an int holds no value past int32")
	}
	w64 := int64(1) << 31
	wide := int(w64) // a variable: the constant does not compile where int is 32 bits
	for name, widen := range map[string]func(*SurveyRecord){
		"pair index": func(sr *SurveyRecord) { sr.PairIndex = wide },
		"prior hops": func(sr *SurveyRecord) { sr.PriorHops = wide },
		"diamond":    func(sr *SurveyRecord) { sr.Diamonds[0].MaxWidth = wide },
	} {
		sr := sampleRecord(1)
		if _, err := appendRecordLine(nil, sr); err != nil {
			t.Fatal(err)
		}
		widen(sr)
		if _, err := appendRecordLine(nil, sr); err == nil {
			t.Errorf("record with a wide %s written", name)
		}
	}
	if err := validateSeen([][2]int{{0, wide}}); err == nil {
		t.Error("wide provenance passes validateSeen")
	}
	for name, spec := range map[string]AtlasStreamSpec{
		"pair":         {Pairs: []AtlasPair{{Pair: wide}}, Shards: 1},
		"diamond pair": {Diamonds: []AtlasDiamond{{Pairs: []int{wide}}}, Shards: 1},
		"diamond size": {Diamonds: []AtlasDiamond{{MaxLength: wide}}, Shards: 1},
	} {
		if _, err := NewAtlasStreamEncoder(&bytes.Buffer{}, spec); err == nil {
			t.Errorf("atlas stream with a wide %s opened", name)
		}
	}
}
