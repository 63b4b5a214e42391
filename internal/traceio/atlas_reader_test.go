package traceio

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
)

// Block boundaries are the producer's: any cut of the node order is a
// valid, byte-deterministic file that reads back to the same content
// and verifies.
func TestAtlasV2SmallShardsRoundTrip(t *testing.T) {
	t.Parallel()
	f := wideFixture()
	for _, per := range []int{1, 2, 3, 4, 100} {
		a, b := f.encode(t, per), f.encode(t, per)
		if !bytes.Equal(a, b) {
			t.Fatalf("per=%d: encode not deterministic", per)
		}
		pin.Check(t, fmt.Sprintf("traceio/wide/per=%d", per), a)
		r := openBytes(t, a)
		if err := r.Verify(); err != nil {
			t.Fatalf("per=%d: %v", per, err)
		}
		if want := (len(f.Nodes) + per - 1) / per; r.NumShards() != want {
			t.Fatalf("per=%d: %d shards, want %d", per, r.NumShards(), want)
		}
		if dec, _ := readAll(t, r); !sameContent(dec, f) {
			t.Fatalf("per=%d: decode differs", per)
		}
	}
}

func writeFixtureFile(t *testing.T, f *atlasFixture, per int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.atlas")
	if err := os.WriteFile(path, f.encode(t, per), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The indexed reader routes each address to the shard whose fences own
// it and decodes exactly that block.
func TestAtlasReaderShardRouting(t *testing.T) {
	t.Parallel()
	f := wideFixture()
	r, err := OpenAtlasFile(writeFixtureFile(t, f, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.Header().Version; v != AtlasVersion {
		t.Fatalf("Version = %d", v)
	}
	if got, want := r.NumShards(), 5; got != want { // ceil(9/2)
		t.Fatalf("NumShards = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(r.Pairs(), f.Pairs) {
		t.Fatalf("Pairs = %+v", r.Pairs())
	}
	// Every node address resolves to a shard that actually contains it.
	for _, n := range f.Nodes {
		si := r.ShardFor(n.Addr)
		sh, err := r.ReadShard(si)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sn := range sh.Nodes {
			if sn.Addr == n.Addr {
				found = true
				if !reflect.DeepEqual(sn.Seen, n.Seen) {
					t.Fatalf("%s: Seen = %v, want %v", n.Addr, sn.Seen, n.Seen)
				}
			}
		}
		if !found {
			t.Fatalf("shard %d does not hold %s", si, n.Addr)
		}
	}
	// Routers live with their representative: 10.0.0.2's component in
	// the shard owning 10.0.0.2, and member 10.0.0.3's node names it.
	si := r.ShardFor(packet.MustParseAddr("10.0.0.2"))
	sh, err := r.ReadShard(si)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Routers) != 1 || sh.Routers[0].Addrs[0] != ip("10.0.0.2") {
		t.Fatalf("shard %d routers = %+v", si, sh.Routers)
	}
	sh3, err := r.ReadShard(r.ShardFor(packet.MustParseAddr("10.0.0.3")))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sh3.Nodes {
		if n.Addr == ip("10.0.0.3") && n.Router != ip("10.0.0.2") {
			t.Fatalf("node 10.0.0.3 router = %s, want 10.0.0.2", n.Router)
		}
	}
	// Successor lists carry the edges: node 10.0.0.1 links to .2 and .3.
	sh1, err := r.ReadShard(r.ShardFor(packet.MustParseAddr("10.0.0.1")))
	if err != nil {
		t.Fatal(err)
	}
	if got := sh1.Nodes[0].Succ; !reflect.DeepEqual(got, ips("10.0.0.2", "10.0.0.3")) {
		t.Fatalf("10.0.0.1 succ = %v", got)
	}
	ds, err := r.ReadDiamonds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, f.Diamonds) {
		t.Fatalf("diamonds = %+v", ds)
	}
	if _, err := r.ReadShard(5); err == nil {
		t.Fatal("ReadShard past the last shard must error")
	}
}

// Canonical-order violations are open or read errors: that validation
// is what guarantees every accepted block re-encodes (shard fences
// require ordered addresses). Order across a shard boundary is the
// index's fence order plus each block staying inside its fences. So is
// an address in any text but its canonical one, wherever it stands.
func TestAtlasDecodeRejectsNonCanonicalNodes(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 4) // 3 shards: .1-.4, .5-.8, .9
	lastMin := bytes.LastIndex(raw, []byte(`"min":"10.0.0.5"`))
	// want is a fragment of the error: the check that fired, and for
	// address text that it was refused as such, with the line it is on.
	const notCanonical = "is not a canonical dotted quad"
	for _, c := range []struct{ name, in, want string }{
		{"descending", corrupt(t, raw, `{"addr":"10.0.0.3"`, `{"addr":"10.0.0.1"`), "line 4: node 10.0.0.1 out of canonical order"},
		{"duplicate", corrupt(t, raw, `{"addr":"10.0.0.3"`, `{"addr":"10.0.0.2"`), "line 4: node 10.0.0.2 out of canonical order"},
		{"zero node address", corrupt(t, raw, `{"addr":"10.0.0.1"`, `{"addr":"0.0.0.0"`), "line 2: node 0.0.0.0 out of canonical order"},
		{"descending across shards", corrupt(t, raw, `{"addr":"10.0.0.5"`, `{"addr":"10.0.0.3"`,
			`"min":"10.0.0.5"`, `"min":"10.0.0.3"`), "index shard 1 fences out of order"},
		{"node outside its fences", corrupt(t, raw, `{"addr":"10.0.0.6"`, `{"addr":"10.0.0.9"`,
			`{"addr":"10.0.0.7"`, `{"addr":"10.0.0.10"`, `{"addr":"10.0.0.8"`, `{"addr":"10.0.0.11"`,
			`{"shard":1,"nodes":4,"routers":1,"min":"10.0.0.5","max":"10.0.0.8"}`,
			`{"shard":1,"nodes":4,"routers":1,"min":"10.0.0.5","max":"10.0.0.11"}`), "fences out of order"},
		{"routers out of order", corrupt(t, wideFixture().encode(t, 0),
			`{"addrs":["10.0.0.2","10.0.0.3"]}`+"\n"+`{"addrs":["10.0.0.7","10.0.0.9"]}`,
			`{"addrs":["10.0.0.7","10.0.0.9"]}`+"\n"+`{"addrs":["10.0.0.2","10.0.0.3"]}`), "line 12: router 10.0.0.2 out of canonical order"},
		{"pairs repeated", repeatedPairs(t), "line 2: pair 5 out of canonical order"},
		{"pairs descending", corrupt(t, raw, `{"pair":0,`, `{"pair":7,`), "line 2: pair 1 out of canonical order"},
		{"unparseable node", corrupt(t, raw, `{"addr":"10.0.0.1"`, `{"addr":"not-an-ip"`), "line 2: bad node: packet: \"not-an-ip\" " + notCanonical},
		{"unparseable successor", corrupt(t, raw, `"succ":["10.0.0.2","10.0.0.3"]`, `"succ":["10.0.0.2","bogus"]`), "line 2: bad node: packet: \"bogus\" " + notCanonical},
		{"unparseable router rep", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["bogus","10.0.0.3"]}`), "line 6: bad router: packet: \"bogus\" " + notCanonical},
		{"unparseable router member", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.2","bogus"]}`), "line 6: bad router: packet: \"bogus\" " + notCanonical},
		{"node address not canonical", corrupt(t, raw, `{"addr":"10.0.0.3"`, `{"addr":"010.0.0.3"`), "line 4: bad node: packet: \"010.0.0.3\" " + notCanonical},
		{"successor not canonical", corrupt(t, raw, `"succ":["10.0.0.2","10.0.0.3"]`, `"succ":["10.0.0.2","10.0.00.3"]`), "line 2: bad node: packet: \"10.0.00.3\" " + notCanonical},
		{"router field not canonical", corrupt(t, raw, `"succ":["10.0.0.4"],"router":"10.0.0.2"}`, `"succ":["10.0.0.4"],"router":"10.0.0.02"}`), "line 3: bad node: packet: \"10.0.0.02\" " + notCanonical},
		{"router member not canonical", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.2","10.00.0.3"]}`), "line 6: bad router: packet: \"10.00.0.3\" " + notCanonical},
		// Same-length edits, so every offset still holds: the block's
		// fence, then the index's.
		{"block fence not canonical", strings.Replace(string(raw), `"min":"10.0.0.5"`, `"min":"1.00.0.5"`, 1), "line 1: bad shard header: packet: \"1.00.0.5\" " + notCanonical},
		{"index fence not canonical", string(raw[:lastMin]) + `"min":"1.00.0.5"` + string(raw[lastMin+len(`"min":"10.0.0.5"`):]), "bad atlas index: packet: \"1.00.0.5\" " + notCanonical},
		// Line forms encoding/json reads but no encoder writes, each in
		// a file whose offsets are rebuilt around it.
		{"CRLF", string(lineEndVariants(t, raw)["crlf"]), "bad atlas header: not canonical at byte 94"},
		{"blank line", string(lineEndVariants(t, raw)["blank"]), "shard 0: traceio: atlas line 2: blank line"},
		{"pretty-printed node", corrupt(t, raw, `{"addr":"10.0.0.4","seen":[[0,3]],"succ":null}`, "{\n  \"addr\": \"10.0.0.4\",\n  \"seen\": [[0,3]],\n  \"succ\": null\n}"),
			"line 5: bad node: unexpected end of JSON input"},
		{"node with an unknown field", corrupt(t, raw, `{"addr":"10.0.0.4","seen"`, `{"addr":"10.0.0.4","extra":1,"seen"`), "line 5: bad node: not canonical at byte 18"},
		{"node with a space", corrupt(t, raw, `{"addr":"10.0.0.4","seen"`, `{"addr": "10.0.0.4","seen"`), "line 5: bad node: not canonical at byte 8"},
		{"provenance with a leading zero", corrupt(t, raw, `"seen":[[0,3]]`, `"seen":[[0,03]]`), "line 5: bad node: invalid character '3' after array element"},
		{"router with an unknown field", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.2","10.0.0.3"],"extra":1}`), "line 6: bad router: not canonical at byte 32"},
		{"pair with an unknown field", corrupt(t, raw, `{"pair":0,`, `{"extra":0,"pair":0,`), "line 1: bad pair: not canonical at byte 0"},
		{"pair with a leading zero", corrupt(t, raw, `{"pair":1,`, `{"pair":01,`), "line 2: bad pair: invalid character '1' after object key:value pair"},
		{"diamond with an escape", corrupt(t, raw, `{"div":"10.0.0.1"`, `{"div":"10.0.0.\u0031"`), "bad diamond: not canonical at byte 7"},
	} {
		if err := openAndVerify([]byte(c.in)); err == nil {
			t.Errorf("%s: accepted non-canonical input", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

// TestAtlasLocatorLinesCanonical refuses each locator line (header,
// shard header, index, trailer) with one space added, offsets rebuilt
// around it: encoding/json reads every such line to the value the
// encoder wrote, but the encoder never writes that line, so a reader
// that took it would accept a file the re-stream does not reproduce.
func TestAtlasLocatorLinesCanonical(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 4)
	// spaceIndex respaces the index line and rewrites the trailer for
	// its new length; the index starts where it did.
	spaceIndex := func() string {
		body := bodyOf(raw)
		tail := string(raw[len(body):])
		index := strings.Replace(tail[:strings.Index(tail, `{"kind":"atlas-trailer"`)], `,"pairs_off"`, `, "pairs_off"`, 1)
		return fmt.Sprintf("%s%s"+`{"kind":"atlas-trailer","version":2,"index_off":%d,"index_len":%d}`+"\n",
			body, index, len(body), len(index))
	}
	for _, c := range []struct{ name, in, want string }{
		{"header", reindex(t, strings.Replace(bodyOf(raw), `{"version":2,"kind"`, `{"version":2, "kind"`, 1), nil),
			"bad atlas header: not canonical at byte 13"},
		{"shard header", corrupt(t, raw, `{"shard":0,"nodes"`, `{"shard":0, "nodes"`),
			"line 1: bad shard header: not canonical at byte 10"},
		{"index", spaceIndex(), "bad atlas index: not canonical at byte 22"},
		{"trailer", strings.Replace(string(raw), `{"kind":"atlas-trailer",`, `{"kind":"atlas-trailer", `, 1),
			"bad atlas trailer: not canonical at byte 24"},
	} {
		if err := openAndVerify([]byte(c.in)); err == nil {
			t.Errorf("%s with a space: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s with a space: error %q does not say %q", c.name, err, c.want)
		}
	}
}

// Corrupt structure fails loudly at open or read time.
func TestAtlasReaderHostileInput(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 0)
	write := func(b []byte) string {
		path := filepath.Join(t.TempDir(), "bad.atlas")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Truncations: any prefix must fail open or fail reads, never panic.
	for n := 0; n < len(raw); n += 97 {
		r, err := OpenAtlasFile(write(raw[:n]))
		if err != nil {
			continue
		}
		for i := 0; i < r.NumShards(); i++ {
			_, _ = r.ReadShard(i)
		}
		_, _ = r.ReadDiamonds()
		r.Close()
	}
	// A trailer pointing outside the file.
	mangled := bytes.Replace(raw, []byte(`"kind":"atlas-trailer","version":2,"index_off":`), nil, 1)
	if _, err := OpenAtlasFile(write(mangled)); err == nil {
		t.Error("open accepted a file with a mangled trailer")
	}
	// Garbage where the index should be.
	idx := bytes.Index(raw, []byte(`{"kind":"atlas-index"`))
	corrupted := append([]byte(nil), raw...)
	copy(corrupted[idx:], []byte(`XXXXX`))
	if _, err := OpenAtlasFile(write(corrupted)); err == nil {
		t.Error("open accepted a corrupt index")
	}
	// Spans whose end overflows int64 must be refused at open, before
	// any read sizes a buffer from them.
	for name, edit := range map[string]func(*AtlasIndex){
		"shard off":    func(ix *AtlasIndex) { ix.Shards[0].Off = math.MaxInt64 },
		"shard len":    func(ix *AtlasIndex) { ix.Shards[0].Len = math.MaxInt64 },
		"pairs len":    func(ix *AtlasIndex) { ix.PairsLen = math.MaxInt64 },
		"diamonds len": func(ix *AtlasIndex) { ix.DiamondsLen = math.MaxInt64 },
	} {
		hostile := reindex(t, bodyOf(raw), edit)
		if _, err := NewAtlasReader(strings.NewReader(hostile), int64(len(hostile))); err == nil {
			t.Errorf("open accepted an overflowing %s", name)
		}
	}
}

// Verify makes the checks no point read can: one corrupted file per
// check, each rejected with an error naming it. Every corruption keeps
// the locator lines consistent with the body (corrupt → reindex), or
// edits only the index, so open and every other shard's read pass and
// the failure is Verify's own.
func TestAtlasV2DecodeRejections(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 4) // 3 shards: .1-.4, .5-.8, .9
	r := openBytes(t, raw)
	if err := r.Verify(); err != nil {
		t.Fatalf("the uncorrupted file does not verify: %v", err)
	}
	body := bodyOf(raw)
	// One node, but a second, empty shard: more shards than nodes.
	one := (&atlasFixture{Nodes: wideFixture().Nodes[3:4]}).encode(t, 0)
	twoShards := reindex(t, strings.Replace(bodyOf(one), `"shards":1`, `"shards":2`, 1)+`{"shard":1,"nodes":0,"routers":0}`+"\n", nil)

	cases := []struct{ name, check, in string }{
		{"more shards than nodes", "shard count", twoShards},
		// A blank line after the diamonds that no section owns.
		{"gap before index", "layout", reindex(t, body+"\n", func(ix *AtlasIndex) { ix.DiamondsLen-- })},
		{"bytes after trailer", "layout", string(raw) + "\n"},
		{"block fence beyond last node", "fences", corrupt(t, raw, `"min":"10.0.0.9","max":"10.0.0.9"`, `"min":"10.0.0.9","max":"10.0.0.10"`)},
		{"index fence disagrees with block", "fences", reindex(t, body, func(ix *AtlasIndex) { ix.Shards[2].Max = ip("10.0.1.9") })},
		{"node total", "node total", corrupt(t, raw, `"nodes":9,"edges"`, `"nodes":10,"edges"`)},
		{"router total", "router total", corrupt(t, raw, `"routers":2,"diamonds"`, `"routers":3,"diamonds"`)},
		{"edge total", "edge total", corrupt(t, raw, `"edges":8`, `"edges":7`)},
		{"edge to unknown addr", "successors", corrupt(t, raw, `"succ":["10.0.0.2","10.0.0.3"]`, `"succ":["10.0.0.2","10.9.9.9"]`)},
		{"diamond count", "diamonds", corrupt(t, raw, `"diamonds":1`, `"diamonds":2`)},
		// The census checks: each corruption leaves a census that
		// /v1/census would list or count wrong.
		{"census entry twice", "census", corrupt(t, raw, `"diamonds":1`, `"diamonds":2`, `{"div":"10.0.0.1","conv":"10.0.0.4","count":2,"pairs":[0],"max_width":2,"max_length":2}`, `{"div":"10.0.0.1","conv":"10.0.0.4","count":2,"pairs":[0],"max_width":2,"max_length":2}`+"\n"+`{"div":"10.0.0.1","conv":"10.0.0.4","count":2,"pairs":[0],"max_width":2,"max_length":2}`)},
		{"census entries descending", "census", corrupt(t, raw, `"diamonds":1`, `"diamonds":2`,
			`{"div":"10.0.0.1","conv":"10.0.0.4","count":2,"pairs":[0],"max_width":2,"max_length":2}`, `{"div":"10.0.0.1","conv":"10.0.0.4","count":2,"pairs":[0],"max_width":2,"max_length":2}`+"\n"+`{"div":"10.0.0.0","conv":"10.0.0.4","count":1,"pairs":[1],"max_width":2,"max_length":2}`)},
		{"census pairs not ascending", "census", corrupt(t, raw, `"count":2,"pairs":[0]`, `"count":3,"pairs":[1,0,0]`)},
		{"census entry without pairs", "census", corrupt(t, raw, `"count":2,"pairs":[0]`, `"count":0,"pairs":[]`)},
		{"census pairs beyond count", "census", corrupt(t, raw, `"count":2,"pairs":[0]`, `"count":1,"pairs":[0,1]`)},
		{"unreadable shard", "shard 1", corrupt(t, raw, `{"addrs":["10.0.0.7","10.0.0.9"]}`, `{"addrs":["10.0.0.7"]}`)},
		// The router checks: each corruption leaves a file a router
		// query cannot answer.
		{"router members descending", "router order", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.3","10.0.0.2"]}`)},
		{"router outside its representative's shard", "router placement", corrupt(t, raw, `{"addrs":["10.0.0.2","10.0.0.3"]}`, `{"addrs":["10.0.0.5","10.0.0.6"]}`)},
		{"node names a router with no line", "router links", corrupt(t, raw,
			`{"addr":"10.0.0.3","seen":[[0,2]],"succ":["10.0.0.4"],"router":"10.0.0.2"}`,
			`{"addr":"10.0.0.3","seen":[[0,2]],"succ":["10.0.0.4"],"router":"10.0.0.1"}`)},
		{"router member names no router", "router links", corrupt(t, raw,
			`{"addr":"10.0.0.7","seen":[[1,4]],"succ":["10.0.0.8"],"router":"10.0.0.7"}`,
			`{"addr":"10.0.0.7","seen":[[1,4]],"succ":["10.0.0.8"]}`)},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		r, err := NewAtlasReader(strings.NewReader(c.in), int64(len(c.in)))
		if err != nil {
			t.Errorf("%s: rejected at open, before Verify could name the check: %v", c.name, err)
			continue
		}
		err = r.Verify()
		if err == nil {
			t.Errorf("%s: Verify accepted the corruption", c.name)
			continue
		}
		if !strings.Contains(err.Error(), "atlas verify: "+c.check+":") {
			t.Errorf("%s: error %q does not name check %q", c.name, err, c.check)
		}
		seen[err.Error()] = true
	}
	if len(seen) != len(cases) {
		t.Errorf("%d corruptions produced %d distinct messages", len(cases), len(seen))
	}
}
