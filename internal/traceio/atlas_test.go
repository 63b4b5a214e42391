package traceio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
)

// ip is packet.MustParseAddr, short for the fixtures; ips parses a list.
func ip(s string) packet.Addr { return packet.MustParseAddr(s) }

func ips(ss ...string) []packet.Addr {
	out := make([]packet.Addr, len(ss))
	for i, s := range ss {
		out[i] = ip(s)
	}
	return out
}

// atlasFixture is a snapshot's content in file form: nodes in canonical
// order with their successor lists and router representatives filled.
type atlasFixture struct {
	name     string
	Pairs    []AtlasPair
	Nodes    []AtlasNodeV2
	Routers  []AtlasRouter
	Diamonds []AtlasDiamond
}

func sampleFixture() *atlasFixture {
	return &atlasFixture{
		name: "sample",
		Pairs: []AtlasPair{
			{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"},
			{Pair: 3, Src: "192.0.2.2", Dst: "203.0.113.4"},
		},
		Nodes: []AtlasNodeV2{
			{Addr: ip("10.0.0.1"), Seen: [][2]int{{0, 1}, {3, 2}}, Succ: ips("10.0.0.2", "10.0.0.3")},
			{Addr: ip("10.0.0.2"), Seen: [][2]int{{0, 2}}, Router: ip("10.0.0.2")},
			{Addr: ip("10.0.0.3"), Seen: [][2]int{{3, 3}}, Router: ip("10.0.0.2")},
		},
		Routers: []AtlasRouter{
			{Addrs: ips("10.0.0.2", "10.0.0.3")},
		},
		Diamonds: []AtlasDiamond{
			{Div: "10.0.0.1", Conv: "10.0.0.9", Count: 3, Pairs: []int{0, 3}, MaxWidth: 4, MaxLength: 2},
		},
	}
}

// wideFixture spans several shards when cut small: nine nodes, two
// multi-interface routers, cross-shard edges.
func wideFixture() *atlasFixture {
	return &atlasFixture{
		name: "wide",
		Pairs: []AtlasPair{
			{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"},
			{Pair: 1, Src: "192.0.2.2", Dst: "203.0.113.2"},
		},
		Nodes: []AtlasNodeV2{
			{Addr: ip("10.0.0.1"), Seen: [][2]int{{0, 1}}, Succ: ips("10.0.0.2", "10.0.0.3")},
			{Addr: ip("10.0.0.2"), Seen: [][2]int{{0, 2}, {1, 3}}, Succ: ips("10.0.0.4"), Router: ip("10.0.0.2")},
			{Addr: ip("10.0.0.3"), Seen: [][2]int{{0, 2}}, Succ: ips("10.0.0.4"), Router: ip("10.0.0.2")},
			{Addr: ip("10.0.0.4"), Seen: [][2]int{{0, 3}}},
			{Addr: ip("10.0.0.5"), Seen: [][2]int{{1, 1}}, Succ: ips("10.0.0.6")},
			{Addr: ip("10.0.0.6"), Seen: [][2]int{{1, 2}}, Succ: ips("10.0.0.2")},
			{Addr: ip("10.0.0.7"), Seen: [][2]int{{1, 4}}, Succ: ips("10.0.0.8"), Router: ip("10.0.0.7")},
			{Addr: ip("10.0.0.8"), Seen: [][2]int{{1, 5}}, Succ: ips("10.0.0.9")},
			{Addr: ip("10.0.0.9"), Seen: [][2]int{{1, 6}}, Router: ip("10.0.0.7")},
		},
		Routers: []AtlasRouter{
			{Addrs: ips("10.0.0.2", "10.0.0.3")},
			{Addrs: ips("10.0.0.7", "10.0.0.9")},
		},
		Diamonds: []AtlasDiamond{
			{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 2, Pairs: []int{0}, MaxWidth: 2, MaxLength: 2},
		},
	}
}

// blocks cuts the fixture's nodes into runs of per (0 = the format's
// default) and places each router with its representative, the layout
// rule every producer follows.
func (f *atlasFixture) blocks(per int) []*AtlasShard {
	if per <= 0 {
		per = DefaultAtlasShardNodes
	}
	var out []*AtlasShard
	var mins []packet.Addr
	for lo := 0; lo < len(f.Nodes) || lo == 0; lo += per {
		hi := min(lo+per, len(f.Nodes))
		blk := &AtlasShard{Header: AtlasShardHeader{Shard: len(out), Nodes: hi - lo}, Nodes: f.Nodes[lo:hi]}
		if hi > lo {
			blk.Header.Min, blk.Header.Max = f.Nodes[lo].Addr, f.Nodes[hi-1].Addr
			mins = append(mins, blk.Header.Min)
		}
		out = append(out, blk)
	}
	for _, rt := range f.Routers {
		blk := out[AtlasShardForAddr(mins, rt.Addrs[0])]
		blk.Routers = append(blk.Routers, rt)
		blk.Header.Routers++
	}
	return out
}

func (f *atlasFixture) spec(shards int) AtlasStreamSpec {
	edges := 0
	for _, n := range f.Nodes {
		edges += len(n.Succ)
	}
	return AtlasStreamSpec{
		Pairs: f.Pairs, Nodes: len(f.Nodes), Edges: edges,
		Routers: len(f.Routers), Shards: shards, Diamonds: f.Diamonds,
	}
}

// streamBlocks is the one way a snapshot gets written: spec up front,
// blocks in order, Finish.
func streamBlocks(w io.Writer, spec AtlasStreamSpec, blocks []*AtlasShard) error {
	enc, err := NewAtlasStreamEncoder(w, spec)
	if err != nil {
		return err
	}
	for _, blk := range blocks {
		if err := enc.WriteBlock(blk); err != nil {
			return err
		}
	}
	return enc.Finish()
}

// encode renders the fixture at per nodes per shard.
func (f *atlasFixture) encode(tb testing.TB, per int) []byte {
	tb.Helper()
	blocks := f.blocks(per)
	var buf bytes.Buffer
	if err := streamBlocks(&buf, f.spec(len(blocks)), blocks); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(tb testing.TB, raw []byte) *AtlasReader {
	tb.Helper()
	r, err := NewAtlasReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// readAll decodes a whole snapshot back into fixture form and the
// blocks it was stored as.
func readAll(tb testing.TB, r *AtlasReader) (*atlasFixture, []*AtlasShard) {
	tb.Helper()
	f := &atlasFixture{Pairs: r.Pairs()}
	var blocks []*AtlasShard
	for i := 0; i < r.NumShards(); i++ {
		sh, err := r.ReadShard(i)
		if err != nil {
			tb.Fatal(err)
		}
		blocks = append(blocks, sh)
		f.Nodes = append(f.Nodes, sh.Nodes...)
		f.Routers = append(f.Routers, sh.Routers...)
	}
	var err error
	if f.Diamonds, err = r.ReadDiamonds(); err != nil {
		tb.Fatal(err)
	}
	return f, blocks
}

// restream re-encodes everything r holds under its own header's totals.
func restream(tb testing.TB, r *AtlasReader) []byte {
	tb.Helper()
	f, blocks := readAll(tb, r)
	h := r.Header()
	var buf bytes.Buffer
	err := streamBlocks(&buf, AtlasStreamSpec{
		Pairs: f.Pairs, Nodes: h.Nodes, Edges: h.Edges,
		Routers: h.Routers, Shards: h.Shards, Diamonds: f.Diamonds,
	}, blocks)
	if err != nil {
		tb.Fatalf("snapshot failed to re-encode: %v", err)
	}
	return buf.Bytes()
}

func sameContent(a, b *atlasFixture) bool {
	return reflect.DeepEqual(a.Pairs, b.Pairs) && reflect.DeepEqual(a.Nodes, b.Nodes) &&
		reflect.DeepEqual(a.Routers, b.Routers) && reflect.DeepEqual(a.Diamonds, b.Diamonds)
}

// The snapshot codec round-trips byte-stably: the reader returns the
// content that was written, it verifies, and re-streaming the decoded
// blocks yields the identical bytes, so snapshot files can be compared
// with byte equality across runs.
func TestAtlasRoundTripByteStable(t *testing.T) {
	t.Parallel()
	for _, f := range []*atlasFixture{sampleFixture(), wideFixture()} {
		first := f.encode(t, 0)
		pin.Check(t, "traceio/"+f.name+"/per=0", first)
		r := openBytes(t, first)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		if dec, _ := readAll(t, r); !sameContent(dec, f) {
			t.Fatalf("%s: decoded snapshot differs:\n got %+v\nwant %+v", f.name, dec, f)
		}
		if second := restream(t, r); !bytes.Equal(first, second) {
			t.Fatalf("%s: re-encoded snapshot differs:\n%q\nvs\n%q", f.name, first, second)
		}
	}
}

func TestAtlasEmptyRoundTrip(t *testing.T) {
	t.Parallel()
	raw := (&atlasFixture{name: "empty"}).encode(t, 0)
	pin.Check(t, "traceio/empty/per=0", raw)
	r := openBytes(t, raw)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	dec, _ := readAll(t, r)
	if len(dec.Pairs)+len(dec.Nodes)+len(dec.Routers)+len(dec.Diamonds) != 0 || r.Header().Edges != 0 {
		t.Fatalf("empty snapshot decoded non-empty: %+v", dec)
	}
}

// Snapshots reach disk through WriteFileAtomicStream: a completed
// stream replaces the file, a stream that fails partway leaves the
// previous snapshot intact and no temporary behind.
func TestAtlasFileAtomicWrite(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "a.atlas")
	f := sampleFixture()
	blocks := f.blocks(0)
	err := WriteFileAtomicStream(path, 0o644, func(w io.Writer) error {
		return streamBlocks(w, f.spec(len(blocks)), blocks)
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenAtlasFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameContent(got, f) {
		t.Fatalf("loaded snapshot differs from saved one")
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wide := wideFixture()
	lying := wide.spec(1)
	lying.Nodes++ // Finish refuses: the blocks hold one node fewer
	err = WriteFileAtomicStream(path, 0o644, func(w io.Writer) error {
		return streamBlocks(w, lying, wide.blocks(0))
	})
	if err == nil {
		t.Fatal("a stream the encoder rejected was published")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write changed the previous snapshot")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(names) != 0 {
		t.Fatalf("failed write left temporaries behind: %v", names)
	}
}

// reindex appends the index and trailer that a snapshot body (header,
// pairs, shard blocks, diamonds) implies, taking each shard's index
// entry from its own header line. A test corrupts one body line and
// still presents consistent offsets, so the rejection it provokes is
// the one it aimed at, not a byte-span mismatch. edit, when non-nil,
// corrupts the index itself before it is rendered.
func reindex(tb testing.TB, body string, edit func(*AtlasIndex)) string {
	tb.Helper()
	idx := AtlasIndex{Kind: atlasIndexKind, PairsOff: -1, DiamondsOff: -1}
	off := int64(0)
	for _, line := range strings.SplitAfter(body, "\n") {
		n := int64(len(line))
		switch {
		case off == 0: // header
		case strings.HasPrefix(line, `{"shard":`):
			var sh AtlasShardHeader
			if err := json.Unmarshal([]byte(line), &sh); err != nil {
				tb.Fatal(err)
			}
			idx.Shards = append(idx.Shards, AtlasShardInfo{Off: off, Nodes: sh.Nodes, Routers: sh.Routers, Min: sh.Min, Max: sh.Max})
		case strings.HasPrefix(line, `{"div":`) && idx.DiamondsOff < 0:
			idx.DiamondsOff = off
		}
		switch {
		case off == 0:
			idx.PairsOff = n
		case idx.DiamondsOff >= 0:
			idx.DiamondsLen += n
		case len(idx.Shards) > 0:
			idx.Shards[len(idx.Shards)-1].Len += n
		default:
			idx.PairsLen += n
		}
		off += n
	}
	if idx.DiamondsOff < 0 {
		idx.DiamondsOff = off
	}
	if edit != nil {
		edit(&idx)
	}
	ib, err := json.Marshal(&idx)
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf("%s%s\n"+`{"kind":"atlas-trailer","version":2,"index_off":%d,"index_len":%d}`+"\n",
		body, ib, off, len(ib)+1)
}

// bodyOf strips a snapshot's index and trailer.
func bodyOf(raw []byte) string {
	return string(raw[:bytes.Index(raw, []byte(`{"kind":"atlas-index"`))])
}

// corrupt applies the old/new replacement pairs to raw's body and
// rebuilds the locator lines around the result.
func corrupt(tb testing.TB, raw []byte, oldnew ...string) string {
	tb.Helper()
	body := bodyOf(raw)
	for i := 0; i < len(oldnew); i += 2 {
		if !strings.Contains(body, oldnew[i]) {
			tb.Fatalf("corruption target %q not in snapshot", oldnew[i])
		}
	}
	return reindex(tb, strings.NewReplacer(oldnew...).Replace(body), nil)
}

// repeatedPairs is the sample snapshot with pairs 5, 5 and 2 in place
// of its two pair lines: a file the reader opened and Verify accepted
// before pair order was a decode-time check.
func repeatedPairs(tb testing.TB) string {
	tb.Helper()
	return corrupt(tb, sampleFixture().encode(tb, 0), `"pairs":2`, `"pairs":3`,
		`{"pair":0,"src":"192.0.2.1","dst":"203.0.113.1"}`+"\n"+`{"pair":3,`,
		`{"pair":5,"src":"192.0.2.1","dst":"203.0.113.1"}`+"\n"+`{"pair":5,"src":"192.0.2.9","dst":"203.0.113.9"}`+"\n"+`{"pair":2,`)
}

// openAndVerify runs the full acceptance path over raw bytes: open,
// Verify, every shard, the diamonds.
func openAndVerify(raw []byte) error {
	r, err := NewAtlasReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return err
	}
	if err := r.Verify(); err != nil {
		return err
	}
	for i := 0; i < r.NumShards(); i++ {
		if _, err := r.ReadShard(i); err != nil {
			return err
		}
	}
	_, err = r.ReadDiamonds()
	return err
}

func TestAtlasDecodeRejections(t *testing.T) {
	t.Parallel()
	raw := sampleFixture().encode(t, 0)
	if got := reindex(t, bodyOf(raw), nil); got != string(raw) {
		t.Fatalf("reindex does not reproduce the encoder's locator lines:\n%s\nvs\n%s", got, raw)
	}
	cases := map[string]string{
		"empty":                           "",
		"not json":                        "hop 0: 10.0.0.1\n",
		"wrong kind":                      corrupt(t, raw, `"kind":"atlas"`, `"kind":"survey"`),
		"wrong version":                   corrupt(t, raw, `"version":2`, `"version":99`),
		"negative count":                  corrupt(t, raw, `"edges":2`, `"edges":-2`),
		"missing nodes":                   corrupt(t, raw, `"nodes":3,"edges"`, `"nodes":5,"edges"`),
		"edge total":                      corrupt(t, raw, `"edges":2`, `"edges":3`),
		"singleton router":                corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.2"]}`),
		"missing pair":                    corrupt(t, raw, `{"pair":3,"src":"192.0.2.2","dst":"203.0.113.4"}`+"\n", ""),
		"negative pair":                   corrupt(t, raw, `{"pair":3,`, `{"pair":-3,`),
		"negative provenance":             corrupt(t, raw, `[[3,3]]`, `[[3,-3]]`),
		"negative diamond pair":           corrupt(t, raw, `"pairs":[0,3]`, `"pairs":[0,-3]`),
		"trailing data in shard":          corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`+"\n", `{"addrs":["10.0.0.2","10.0.0.3"]}`+"\n"+`{"addr":"x"}`+"\n"),
		"trailing data after blank lines": corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`+"\n", `{"addrs":["10.0.0.2","10.0.0.3"]}`+"\n\n\n"+`{"addr":"x"}`+"\n"),
		"trailing data after trailer":     string(raw) + `{"addr":"x"}` + "\n",
		"huge header":                     corrupt(t, raw, `"nodes":3,"edges"`, `"nodes":1000000000000,"edges"`),
	}
	for name, in := range cases {
		if in == string(raw) {
			t.Fatalf("%s: corruption did not change the input", name)
		}
		if err := openAndVerify([]byte(in)); err == nil {
			t.Errorf("%s: accepted invalid input", name)
		}
	}
}

// The unsupported-format satellite: a version 1 header is refused with
// an error that says so, not a generic parse failure.
func TestAtlasReaderRejectsV1(t *testing.T) {
	t.Parallel()
	v1 := `{"version":1,"kind":"atlas","pairs":0,"nodes":1,"edges":0,"routers":0,"diamonds":0}` + "\n" +
		`{"addr":"10.0.0.1","seen":[[0,1]]}` + "\n"
	_, err := NewAtlasReader(strings.NewReader(v1), int64(len(v1)))
	if err == nil || !strings.Contains(err.Error(), "version 1 is no longer supported") {
		t.Fatalf("v1 header: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "v1.atlas")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAtlasFile(path); err == nil || !strings.Contains(err.Error(), "version 1 is no longer supported") {
		t.Fatalf("OpenAtlasFile on a v1 file: err = %v", err)
	}
	if _, err := OpenAtlasFile(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
}
