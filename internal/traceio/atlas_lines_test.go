package traceio

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mmlpt/internal/packet"
)

// handDecoded runs one hand parser over line and, when it accepts,
// requires json.Unmarshal to decode the line to the same value, nil
// and empty lists included. It reports whether the parser accepted.
func handDecoded[T any](t *testing.T, line []byte, parse func(string, *T) bool) bool {
	t.Helper()
	var got T
	if !parse(string(line), &got) {
		return false
	}
	var want T
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("hand decoder accepted %T line %q that encoding/json rejects: %v", got, line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T line %q: hand decoder %#v, encoding/json %#v", got, line, got, want)
	}
	return true
}

// checkLineDecoders holds the hand parsers of all four line kinds to
// encoding/json on one line and reports whether any of them took it.
func checkLineDecoders(t *testing.T, line []byte) bool {
	t.Helper()
	d := newLineDecoder(0)
	node := handDecoded(t, line, func(s string, n *AtlasNodeV2) bool { return parseNode(d, s, n) })
	router := handDecoded(t, line, func(s string, rt *AtlasRouter) bool { return parseRouter(d, s, rt) })
	pair := handDecoded(t, line, d.pair)
	diamond := handDecoded(t, line, d.diamond)
	// The []byte instantiations, which parse a point read's buffer, take
	// the same lines to the same values.
	if handDecoded(t, line, func(s string, n *AtlasNodeV2) bool { return parseNode(d, []byte(s), n) }) != node ||
		handDecoded(t, line, func(s string, rt *AtlasRouter) bool { return parseRouter(d, []byte(s), rt) }) != router {
		t.Fatalf("line %q: the string and []byte parsers disagree on taking it", line)
	}
	return node || router || pair || diamond
}

// checkLineTaken runs json.Marshal's line for v through the decoder
// check, requires a hand decoder to take it rather than fall back, and
// returns it.
func checkLineTaken(t *testing.T, v any) []byte {
	t.Helper()
	line, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !checkLineDecoders(t, line) {
		t.Fatalf("%#v: hand decoders refused json.Marshal's line %q", v, line)
	}
	return line
}

// checkLineEncoder holds a hand encoder to json.Marshal plus '\n', the
// line checkLineTaken checked.
func checkLineEncoder(t *testing.T, v any, got []byte) {
	t.Helper()
	if want := checkLineTaken(t, v); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%#v: hand encoder %q, json.Marshal %q", v, got, want)
	}
}

// addrSpellings are the address seeds of the line fuzzers, the same
// spellings FuzzAddrText starts from: canonical edges, and the near
// misses a fused scanner could let through (an octet out of range, a
// leading zero, a missing or extra octet, a sign, trailing bytes).
var addrSpellings = []string{
	"0.0.0.0", "255.255.255.255", "256.0.0.1", "01.2.3.4", "1.2.3",
	"1.2.3.4.5", "1.2.3.", "1..2.3", "-1.2.3.4", "1.2.3.4 ",
}

// FuzzAtlasLines is the oracle for the hand-written line codecs. For
// arbitrary line bytes, whatever the node, router, pair and diamond
// parsers accept decodes to exactly what encoding/json gives,
// addresses through packet.Addr's UnmarshalText. For arbitrary
// addresses (as uint32s) and integers, the node and router encoders
// write exactly json.Marshal's bytes, and the hand parsers take
// json.Marshal's line of every kind back. CI's fuzz-smoke job runs it
// for a short budget; locally:
//
//	go test -run='^$' -fuzz=FuzzAtlasLines -fuzztime=30s ./internal/traceio
func FuzzAtlasLines(f *testing.F) {
	for _, raw := range [][]byte{sampleFixture().encode(f, 0), wideFixture().encode(f, 3)} {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			f.Add(line, uint32(ip("10.0.0.1")), uint32(ip("10.0.0.2")), 0, 1)
		}
	}
	for _, line := range []string{
		`{"addr":"10.0.0.1","seen":[],"succ":[]}`,
		`{"addr":"10.0.0.1","seen":null,"succ":null,"router":""}`,
		`{"addr":"10.0.0.1","seen":null,"succ":null,"router":"0.0.0.0"}`,
		`{"addr":"010.0.0.1","seen":null,"succ":null}`,
		`{"addr":"10.0.0.1","seen":null,"succ":["10.0.00.3"]}`,
		`{"addr":"10.0.0.256","seen":null,"succ":null}`,
		`{"addr": "10.0.0.1","seen":[[0,1]],"succ":null}`,
		`{"seen":[[0,1]],"addr":"10.0.0.1","succ":null}`,
		`{"ADDR":"10.0.0.1","seen":[[0,1]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[0,1,2]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[-0,01]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[01,1]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[0,012]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[1234567890,123456789]],"succ":null}`,
		`{"addr":"10.0.0.1x,"seen":null,"succ":null}`,
		`{"addrs":["10.0.0.1x,"10.0.0.2"]}`,
		`{"addr":"10.0.0.1","seen":[[1e2,1.0]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[9223372036854775807,-9223372036854775808]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":[[99999999999999999999,0]],"succ":null}`,
		`{"addr":"10.0.0.1","seen":null,"succ":["a\"b"]}`,
		`{"addr":"10.0.0.1","seen":null,"succ":null,"router":"10.0.0.1","router":"10.0.0.2"}`,
		`{"addr":"10.0.0.1","seen":null,"succ":null} `,
		`{"addrs":null}`,
		`{"addrs":[]}`,
		`{"addrs":["10.0.0.1",]}`,
		"{\"addrs\":[\"\xff\"]}",
		`{"pair":0,"src":"","dst":""}`,
		`{"pair":-0,"src":"a","dst":"b"}`,
		`{"pair":1,"src":"a\"b","dst":"c"}`,
		`{"pair":1,"src":"a<b","dst":"\u003c"}`,
		`{"pair":1,"dst":"b","src":"a"}`,
		`{"pair":1,"src":"a","dst":"b","dst":"c"}`,
		`{"pair":1e0,"src":"a","dst":"b"}`,
		`{"div":"a","conv":"b","count":1,"pairs":null,"max_width":0,"max_length":0}`,
		`{"div":"a","conv":"b","count":1,"pairs":[],"max_width":0,"max_length":0}`,
		`{"div":"a","conv":"b","count":1,"pairs":[1,-2,03],"max_width":0,"max_length":0}`,
		`{"div":"a","conv":"b","count":-1,"pairs":[9223372036854775808],"max_width":1,"max_length":2}`,
		`{"div":"a","conv":"b","count":1,"pairs":[1],"max_width":2}`,
	} {
		f.Add([]byte(line), uint32(0), uint32(math.MaxUint32), -1, math.MinInt)
	}
	for _, a := range addrSpellings {
		q := `"` + a + `"`
		for _, line := range []string{
			`{"addr":` + q + `,"seen":[[0,1]],"succ":null}`,
			`{"addr":"10.0.0.1","seen":null,"succ":["10.0.0.2",` + q + `]}`,
			`{"addr":"10.0.0.1","seen":null,"succ":null,"router":` + q + `}`,
			`{"addrs":["10.0.0.1",` + q + `]}`,
		} {
			f.Add([]byte(line), uint32(0), uint32(1), 0, 0)
		}
	}
	f.Add([]byte(""), uint32(1), uint32(255), math.MaxInt, math.MinInt)

	f.Fuzz(func(t *testing.T, line []byte, a32, b32 uint32, p, h int) {
		checkLineDecoders(t, line)
		a, b := packet.Addr(a32), packet.Addr(b32)
		for _, n := range []AtlasNodeV2{
			{Addr: a, Seen: [][2]int{{p, h}, {h, p}}, Succ: []packet.Addr{a, b}, Router: b},
			{Addr: b, Seen: [][2]int{}, Succ: []packet.Addr{}},
			{Addr: a},
		} {
			checkLineEncoder(t, &n, appendNodeLine(nil, &n))
		}
		for _, rt := range []AtlasRouter{{Addrs: []packet.Addr{a, b}}, {Addrs: []packet.Addr{}}, {}} {
			checkLineEncoder(t, &rt, appendRouterLine(nil, &rt))
		}
		for _, pr := range []AtlasPair{{Pair: p, Src: a.String(), Dst: b.String()}, {Pair: h}} {
			checkLineTaken(t, &pr)
		}
		for _, dm := range []AtlasDiamond{
			{Div: a.String(), Conv: b.String(), Count: p, Pairs: []int{p, h}, MaxWidth: h, MaxLength: p},
			{Div: a.String(), Pairs: []int{}},
			{},
		} {
			checkLineTaken(t, &dm)
		}
	})
}

// fullBlockFixture is one full 4096-node shard block shaped like a
// survey's: one or two observations per node, one or two successors,
// and a router for every eighth pair of nodes.
func fullBlockFixture() *atlasFixture {
	f := &atlasFixture{name: "full-block", Pairs: []AtlasPair{{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"}}}
	addr := func(i int) packet.Addr { return packet.AddrFrom4(10, byte(i>>8), byte(i), 1) }
	for i := 0; i < DefaultAtlasShardNodes; i++ {
		n := AtlasNodeV2{Addr: addr(i), Seen: [][2]int{{i % 50, 1 + i%7}}}
		if i%3 == 0 {
			n.Seen = append(n.Seen, [2]int{50 + i%50, 2 + i%7})
		}
		for j := i + 1; j < DefaultAtlasShardNodes && j <= i+1+i%2; j++ {
			n.Succ = append(n.Succ, addr(j))
		}
		if k := i &^ 1; k%16 == 0 {
			n.Router = addr(k)
		}
		f.Nodes = append(f.Nodes, n)
	}
	for k := 0; k+1 < DefaultAtlasShardNodes; k += 16 {
		f.Routers = append(f.Routers, AtlasRouter{Addrs: []packet.Addr{addr(k), addr(k + 1)}})
	}
	return f
}

// Allocation pins for the shard codecs. Decoding a full block costs a
// handful of allocations for the whole block (its text, the read's
// staging chunk, the slabs' chunks, the node and router slices), not
// one per value;
// encoding costs only the output buffer's growth. A return to
// reflection — about 15 allocations per node to decode, one or more per
// line to encode — fails these.
func TestAtlasShardCodecAllocsPerNode(t *testing.T) {
	f := fullBlockFixture()
	raw := f.encode(t, 0)
	r := openBytes(t, raw)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	blk := f.blocks(0)[0]
	const nodes = DefaultAtlasShardNodes
	decode := testing.AllocsPerRun(20, func() {
		if _, err := r.ReadShard(0); err != nil {
			t.Fatal(err)
		}
	}) / nodes
	encode := testing.AllocsPerRun(20, func() {
		if _, _, err := AppendAtlasShardBlock(nil, blk); err != nil {
			t.Fatal(err)
		}
	}) / nodes
	t.Logf("ReadShard %.4f allocs/node, AppendAtlasShardBlock %.4f allocs/node", decode, encode)
	for _, c := range []struct {
		name       string
		got, bound float64
	}{
		{"ReadShard", decode, 0.01},
		{"AppendAtlasShardBlock", encode, 0.01},
	} {
		if c.got > c.bound {
			t.Errorf("%s: %.4f allocs/node on a full block, pinned at most %v", c.name, c.got, c.bound)
		}
	}
}
