package traceio

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mmlpt/internal/packet"
)

// checkPointReads holds every point read through ix to sh, the same
// shard as ReadShard decodes it: each node's and each router's line
// decodes to a value reflect.DeepEqual to the block decode's, nil and
// empty lists included, and an address the block has no node or router
// line for is reported absent.
func checkPointReads(t *testing.T, ix *AtlasShardIndex, sh *AtlasShard) {
	t.Helper()
	for _, want := range sh.Nodes {
		var got AtlasNodeV2
		found, err := ix.Node(want.Addr, func(n *AtlasNodeV2) {
			got = AtlasNodeV2{Addr: n.Addr, Seen: slices.Clone(n.Seen), Succ: slices.Clone(n.Succ), Router: n.Router}
		})
		if err != nil || !found {
			t.Fatalf("shard %d: point read of node %s: found %v, err %v", sh.Header.Shard, want.Addr, found, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: point read %#v, block decode %#v", sh.Header.Shard, got, want)
		}
	}
	for _, want := range sh.Routers {
		var got AtlasRouter
		found, err := ix.Router(want.Addrs[0], func(rt *AtlasRouter) { got.Addrs = slices.Clone(rt.Addrs) })
		if err != nil || !found {
			t.Fatalf("shard %d: point read of router %s: found %v, err %v", sh.Header.Shard, want.Addrs[0], found, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: point read %#v, block decode %#v", sh.Header.Shard, got, want)
		}
	}
	absent := packet.Addr(0)
	if n := len(sh.Nodes); n > 0 {
		absent = sh.Nodes[n-1].Addr + 1
	}
	if !slices.ContainsFunc(sh.Nodes, func(n AtlasNodeV2) bool { return n.Addr == absent }) {
		if found, err := ix.Node(absent, func(*AtlasNodeV2) { t.Fatal("absent node decoded") }); found || err != nil {
			t.Fatalf("shard %d: absent node %s: found %v, err %v", sh.Header.Shard, absent, found, err)
		}
	}
	if !slices.ContainsFunc(sh.Routers, func(rt AtlasRouter) bool { return rt.Addrs[0] == absent }) {
		if found, err := ix.Router(absent, func(*AtlasRouter) { t.Fatal("absent router decoded") }); found || err != nil {
			t.Fatalf("shard %d: absent router %s: found %v, err %v", sh.Header.Shard, absent, found, err)
		}
	}
}

// lineEndVariants are a snapshot's body re-laid with the line ends the
// scanner also accepts: CRLF throughout, and blank lines (one "\r\n")
// between node lines. Offsets are rebuilt around them, so the files
// open, verify and decode to the original content.
func lineEndVariants(tb testing.TB, raw []byte) map[string][]byte {
	body := bodyOf(raw)
	return map[string][]byte{
		"crlf":  []byte(reindex(tb, strings.ReplaceAll(body, "\n", "\r\n"), nil)),
		"blank": []byte(reindex(tb, strings.ReplaceAll(body, "}\n{\"addr\":", "}\n\n\r\n{\"addr\":"), nil)),
	}
}

// countingReaderAt counts the reads made through it.
type countingReaderAt struct {
	ra    io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.ra.ReadAt(p, off)
}

// Point reads agree with the block decode on the fixtures, their CRLF
// and blank-line forms, and every cut into shards; an absent address
// costs no read, and a present one exactly one.
func TestShardIndexPointReads(t *testing.T) {
	t.Parallel()
	files := map[string][]byte{}
	for _, f := range []*atlasFixture{sampleFixture(), wideFixture()} {
		for _, per := range []int{1, 2, 3, 0} {
			raw := f.encode(t, per)
			files[fmt.Sprintf("%s/per=%d", f.name, per)] = raw
			for name, v := range lineEndVariants(t, raw) {
				files[fmt.Sprintf("%s/per=%d/%s", f.name, per, name)] = v
			}
		}
	}
	for name, raw := range files {
		cr := &countingReaderAt{ra: bytes.NewReader(raw)}
		r, err := NewAtlasReader(cr, int64(len(raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < r.NumShards(); i++ {
			sh, err := r.ReadShard(i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ix, err := r.IndexShard(i)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPointReads(t, ix, sh)
			before := cr.reads.Load()
			if found, _ := ix.Node(packet.AddrFrom4(192, 0, 2, 99), func(*AtlasNodeV2) {}); found {
				t.Fatalf("%s: shard %d holds a node the fixture has not", name, i)
			}
			if n := cr.reads.Load() - before; n != 0 {
				t.Fatalf("%s: an absent address cost %d reads, want 0", name, n)
			}
			if len(sh.Nodes) > 0 {
				before = cr.reads.Load()
				if _, err := ix.Node(sh.Nodes[0].Addr, func(*AtlasNodeV2) {}); err != nil {
					t.Fatal(err)
				}
				if n := cr.reads.Load() - before; n != 1 {
					t.Fatalf("%s: a point read cost %d reads, want 1", name, n)
				}
			}
		}
	}
}

// A point read checks its line against what the validating decode saw:
// in a file rewritten under an open reader, a node line that now names
// another address, or no longer parses, fails the read instead of
// answering with what it holds.
func TestShardIndexChecksTheLineItReads(t *testing.T) {
	t.Parallel()
	raw := wideFixture().encode(t, 0)
	buf := bytes.Clone(raw)
	r := openBytes(t, buf)
	ix, err := r.IndexShard(0)
	if err != nil {
		t.Fatal(err)
	}
	l4 := `{"addr":"10.0.0.4","seen":[[0,3]],"succ":null}`
	l5 := `{"addr":"10.0.0.5","seen":[[1,1]],"succ":["10.0.0.6"]}`
	i4, i5 := bytes.Index(buf, []byte(l4)), bytes.Index(buf, []byte(l5))
	if i4 < 0 || i5 < 0 {
		t.Fatal("fixture lines changed")
	}
	copy(buf[i4:], `{"addr":"10.0.0.9","seen":[[0,3]],"succ":null}`)
	if _, err := ix.Node(ip("10.0.0.4"), func(*AtlasNodeV2) { t.Fatal("decoded a node the block did not hold there") }); err == nil ||
		!strings.Contains(err.Error(), "node 10.0.0.9 where the block held 10.0.0.4") {
		t.Fatalf("rewritten line: err = %v", err)
	}
	copy(buf[i5:], `{"addr":"10.0.0.5","seen":[[1,1]],"succ":["10.0.0.6"}}`)
	if _, err := ix.Node(ip("10.0.0.5"), func(*AtlasNodeV2) {}); err == nil || !strings.Contains(err.Error(), "bad node") {
		t.Fatalf("broken line: err = %v", err)
	}
}

// sparseReaderAt is a file of size bytes that holds head at its start,
// tail at its end and 'x' everywhere between, without storing them.
type sparseReaderAt struct {
	head, tail []byte
	size       int64
	reads      atomic.Int64
}

func (s *sparseReaderAt) ReadAt(p []byte, off int64) (int, error) {
	s.reads.Add(1)
	tailOff := s.size - int64(len(s.tail))
	for i := range p {
		switch at := off + int64(i); {
		case at < int64(len(s.head)):
			p[i] = s.head[at]
		case at >= tailOff && at < s.size:
			p[i] = s.tail[at-tailOff]
		case at >= s.size:
			return i, io.EOF
		default:
			p[i] = 'x'
		}
	}
	return len(p), nil
}

// A block longer than 32-bit offsets can address is refused by
// IndexShard, naming the shard, before any of it is read.
func TestIndexShardRefusesLongBlock(t *testing.T) {
	t.Parallel()
	const blockLen = 1<<32 + 10
	head := `{"version":2,"kind":"atlas","pairs":0,"nodes":1,"edges":0,"routers":0,"diamonds":0,"shards":1}` + "\n"
	blockOff := int64(len(head))
	idx := fmt.Sprintf(`{"kind":"atlas-index","pairs_off":%d,"pairs_len":0,"shards":[{"off":%d,"len":%d,"nodes":1,"routers":0,"min":"10.0.0.1","max":"10.0.0.1"}],"diamonds_off":%d,"diamonds_len":0}`+"\n",
		blockOff, blockOff, int64(blockLen), blockOff+blockLen)
	idxOff := blockOff + blockLen
	tail := idx + fmt.Sprintf(`{"kind":"atlas-trailer","version":2,"index_off":%d,"index_len":%d}`+"\n", idxOff, len(idx))
	s := &sparseReaderAt{head: []byte(head), tail: []byte(tail), size: idxOff + int64(len(tail))}
	r, err := NewAtlasReader(s, s.size)
	if err != nil {
		t.Fatal(err)
	}
	before := s.reads.Load()
	if _, err := r.IndexShard(0); err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "too long to index") {
		t.Fatalf("IndexShard on a %d-byte block: err = %v", int64(blockLen), err)
	}
	if n := s.reads.Load() - before; n != 0 {
		t.Fatalf("refusing the block cost %d reads, want 0", n)
	}
}
