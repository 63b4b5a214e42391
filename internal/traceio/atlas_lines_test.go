package traceio

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"mmlpt/internal/packet"
)

// handDecoded runs one hand parser over line and, when it accepts,
// requires encode to write the line back from the decoded value and
// json.Unmarshal to decode the line to the same value, nil and empty
// lists included. It reports whether the parser accepted.
func handDecoded[T any](t *testing.T, line []byte, parse func(string, *T) error, encode func(*T) []byte) bool {
	t.Helper()
	var got T
	if parse(string(line), &got) != nil {
		return false
	}
	if back := encode(&got); !bytes.Equal(back, append(slices.Clip(line), '\n')) {
		t.Fatalf("%T line %q accepted, but it re-encodes to %q", got, line, back)
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

// marshalLine is json.Marshal's line for v, the encoder of pair and
// diamond lines.
func marshalLine[T any](v *T) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// checkLineDecoders holds the hand parsers of all five line kinds to
// their encoders and to encoding/json on one line and reports whether
// any of them took it.
func checkLineDecoders(t *testing.T, line []byte) bool {
	t.Helper()
	d := newLineDecoder(0)
	nodeLine := func(n *AtlasNodeV2) []byte { return appendNodeLine(nil, n) }
	routerLine := func(rt *AtlasRouter) []byte { return appendRouterLine(nil, rt) }
	node := handDecoded(t, line, func(s string, n *AtlasNodeV2) error { return parseNode(d, s, n) }, nodeLine)
	router := handDecoded(t, line, func(s string, rt *AtlasRouter) error { return parseRouter(d, s, rt) }, routerLine)
	pair := handDecoded(t, line, d.pair, marshalLine[AtlasPair])
	diamond := handDecoded(t, line, d.diamond, marshalLine[AtlasDiamond])
	shard := handDecoded(t, line, parseShardHeader, marshalLine[AtlasShardHeader])
	// The []byte instantiations, which parse a point read's buffer, take
	// the same lines to the same values.
	if handDecoded(t, line, func(s string, n *AtlasNodeV2) error { return parseNode(d, []byte(s), n) }, nodeLine) != node ||
		handDecoded(t, line, func(s string, rt *AtlasRouter) error { return parseRouter(d, []byte(s), rt) }, routerLine) != router {
		t.Fatalf("line %q: the string and []byte parsers disagree on taking it", line)
	}
	return node || router || pair || diamond || shard
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

// mustRefuseLines are line forms that encoding/json reads but no
// encoder writes, one of each kind: CRLF, a blank line, a pretty-printed
// value, an unknown field, a leading zero in an address and in a number.
func mustRefuseLines(tb testing.TB) []string {
	node := `{"addr":"10.0.0.1","seen":[[0,1]],"succ":["10.0.0.2"]}`
	pretty, err := json.MarshalIndent(AtlasNodeV2{Addr: ip("10.0.0.1"), Seen: [][2]int{{0, 1}}}, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return []string{
		node + "\r",
		"",
		string(pretty),
		`{"addr":"10.0.0.1","seen":[[0,1]],"succ":["10.0.0.2"],"extra":1}`,
		`{"addr":"010.0.0.1","seen":[[0,1]],"succ":["10.0.0.2"]}`,
		`{"addr":"10.0.0.1","seen":[[0,01]],"succ":["10.0.0.2"]}`,
		`{"addrs":["10.0.0.1","10.0.0.2"]}` + "\r",
		`{"addrs":["10.0.0.1","10.0.0.2"],"extra":null}`,
		`{"addrs":["10.0.0.1","010.0.0.2"]}`,
		`{"pair":0,"src":"a","dst":"b"}` + "\r",
		`{"pair":0,"src":"a","dst":"b","extra":""}`,
		`{"pair":00,"src":"a","dst":"b"}`,
		`{"div":"a","conv":"b","count":1,"pairs":[0],"max_width":2,"max_length":1}` + "\r",
		`{"div":"a","conv":"b","count":1,"pairs":[0],"max_width":2,"max_length":1,"extra":[]}`,
		`{"div":"a","conv":"b","count":01,"pairs":[0],"max_width":2,"max_length":1}`,
	}
}

// FuzzAtlasLines is the oracle for the line codecs. For arbitrary line
// bytes, whatever the node, router, pair and diamond parsers accept
// re-encodes to exactly those bytes and decodes to exactly what
// encoding/json gives; everything else is refused (the must-refuse
// seeds are checked before fuzzing). For arbitrary addresses (as
// uint32s) and integers, the node and router encoders write exactly
// json.Marshal's bytes, and the hand parsers take json.Marshal's line
// of every kind back when its integers are in int32 range, and refuse
// it otherwise. For an arbitrary string, NewAtlasStreamEncoder
// refuses a pair or diamond holding it exactly when the parser refuses
// json.Marshal's line for it. CI's fuzz-smoke job runs it for a short
// budget; locally:
//
//	go test -run='^$' -fuzz=FuzzAtlasLines -fuzztime=30s ./internal/traceio
func FuzzAtlasLines(f *testing.F) {
	for _, raw := range [][]byte{sampleFixture().encode(f, 0), wideFixture().encode(f, 3)} {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			f.Add(line, "10.0.0.1", uint32(ip("10.0.0.1")), uint32(ip("10.0.0.2")), 0, 1)
		}
	}
	d := newLineDecoder(0)
	for _, line := range mustRefuseLines(f) {
		if parseNode(d, line, new(AtlasNodeV2)) == nil || parseRouter(d, line, new(AtlasRouter)) == nil ||
			d.pair(line, new(AtlasPair)) == nil || d.diamond(line, new(AtlasDiamond)) == nil {
			f.Fatalf("line %q accepted", line)
		}
		f.Add([]byte(line), "a\r", uint32(1), uint32(2), 0, 1)
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
		`{"shard":0, "nodes":1,"routers":0,"min":"10.0.0.1","max":"10.0.0.1"}`,
		`{"shard":0,"nodes":0,"routers":0,"min":"0.0.0.0"}`,
		`{"shard":0,"nodes":1,"routers":0,"max":"10.0.0.1","min":"10.0.0.1"}`,
		`{"shard":1,"nodes":2,"routers":0,"max":"10.0.0.2"}`,
		`{"shard":01,"nodes":2,"routers":0}`,
	} {
		f.Add([]byte(line), "a", uint32(0), uint32(math.MaxUint32), -1, math.MinInt)
	}
	for _, a := range addrSpellings {
		q := `"` + a + `"`
		for _, line := range []string{
			`{"addr":` + q + `,"seen":[[0,1]],"succ":null}`,
			`{"addr":"10.0.0.1","seen":null,"succ":["10.0.0.2",` + q + `]}`,
			`{"addr":"10.0.0.1","seen":null,"succ":null,"router":` + q + `}`,
			`{"addrs":["10.0.0.1",` + q + `]}`,
		} {
			f.Add([]byte(line), a, uint32(0), uint32(1), 0, 0)
		}
	}
	f.Add([]byte(""), "a<b>&c\"\\\xff\u00e9", uint32(1), uint32(255), math.MaxInt, math.MinInt)

	f.Add([]byte(`{"addr":"10.0.0.1","seen":[[2147483647,2147483648]],"succ":null}`), "a", uint32(1), uint32(2), math.MaxInt32, math.MinInt32)

	f.Fuzz(func(t *testing.T, line []byte, s string, a32, b32 uint32, p, h int) {
		checkLineDecoders(t, line)
		a, b := packet.Addr(a32), packet.Addr(b32)
		// Every integer of a line is read in int32 range on every
		// GOARCH: a line holding a wider one is refused, and the lines
		// checked below hold p and h wrapped into that range.
		for _, v := range []int{p, h} {
			if fitsInt32(v) {
				continue
			}
			for _, w := range []any{
				&AtlasNodeV2{Addr: a, Seen: [][2]int{{0, v}}}, &AtlasPair{Pair: v},
				&AtlasDiamond{Pairs: []int{v}}, &AtlasDiamond{MaxWidth: v}, &AtlasShardHeader{Nodes: v},
			} {
				if line, _ := json.Marshal(w); checkLineDecoders(t, line) {
					t.Fatalf("line %q, holding %d, past int32, was taken", line, v)
				}
			}
		}
		p, h = int(int32(p)), int(int32(h))
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
		for _, sh := range []AtlasShardHeader{{Shard: p, Nodes: h, Routers: p, Min: a, Max: b}, {Shard: h, Max: a}} {
			checkLineTaken(t, &sh)
		}
		pr, dm := AtlasPair{Src: s, Dst: b.String()}, AtlasDiamond{Div: a.String(), Conv: s, Count: 1, Pairs: []int{0}}
		for _, c := range []struct {
			line []byte
			spec AtlasStreamSpec
		}{
			{marshalLine(&pr), AtlasStreamSpec{Pairs: []AtlasPair{pr}, Shards: 1}},
			{marshalLine(&dm), AtlasStreamSpec{Diamonds: []AtlasDiamond{dm}, Shards: 1}},
		} {
			taken := checkLineDecoders(t, bytes.TrimSuffix(c.line, []byte("\n")))
			if _, err := NewAtlasStreamEncoder(io.Discard, c.spec); (err == nil) != taken {
				t.Fatalf("string %q: the parser takes its line: %v; the stream encoder's error: %v", s, taken, err)
			}
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
