package atlas

// Snapshot byte pins. The SHA-256 digests in snapshotPins were recorded
// on the parent commit 0d9bf5de4010e71f50c7e9c25b11031d0dcf8b2a from
// the reference path this change deletes: the materialized encode of
// the atlas's in-memory snapshot struct for the single-atlas fixtures,
// and, for the compact cases, decoding every input whole, merging the
// decoded structs into a fresh atlas and encoding that materialized.
// They pass unmodified here. Every equivalence
// test below holds the streaming writer to (a) its digest and (b) a
// cross-check between the two production paths that remain: WriteTo of
// an atlas that ingested directly, and Compact over saved files.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

var snapshotPins = map[string]string{
	"gen/seed=1/pairs=25":   "96d6a6429a623d0fc6a803774e7fb4f794975534cad226a03fd6b8f33cf4b36d",
	"gen/seed=2/pairs=25":   "277c79a6cf70fdf7ee06582a0afa026c5df7476cad69db054189967e514da493",
	"gen/seed=3/pairs=25":   "8fb3e8354deb725cec5392af103f78af500a992ff2cbcb94acc5584b47b572a9",
	"gen/seed=5/pairs=30":   "fac4f597803660f0f05007edafabb7adcd029d1fdb57c3eec8b04e7fe24176ba",
	"gen/seed=6/pairs=20":   "f2ae463c4d8feac123ddf7631a8e6581064b89e15f3c07728208d86dbf9e19c3",
	"gen/seed=7/pairs=10":   "5202545344ed275e5b91c5c2f89a689669e7ac2e223aedc329810d9326ebc776",
	"gen/seed=9/pairs=3":    "74b43d509cb1f20e49e1b8de9d9559df9acea69ce607e0d07276fb3752fdecef",
	"gen/seed=11/pairs=40":  "0c30fa5e8b58b5a23d125e921b799554fe4a29c5567ba95984082a78c989478b",
	"gen/seed=13/pairs=600": "dddb12aec0b6c9a9eb86150a2078965ed384706c659652148829009bf36d10f5", // 10 958 nodes, 3 shards
	"gen/seed=14/pairs=400": "ad88fc70be3813d80ca386dd2051c6c813bb6ca25293b425c1af6526fb9b7f75", // 7 117 nodes, 2 shards
	"empty":                 "19101404d2ab931754886eb4f0c9cfb53990a59e2a579b2eb90e70da22e76076",
	"hand":                  "057d379a78f204fad52df00dc0fafe591869bdc6c6df334cfb13de202f0c15e4",
	"compact/5+6+7":         "f616bd8496faa2a74ab97613b7afe258bbec82f1347d427b01444c79b68d098b",
	"compact/13+14":         "6d884b898d23e4b3f3e39e0252c01c3ba0d4cffa52ee166fde110e1cb610edfd", // 3 shards
	"canonical":             "2d8b1039b28b7a71d1a90d386534b6cef597af063fcc4d66dbf33e66087a5800",
	"saveload":              "7e96b8a8d3794f5e7ef73443b281ac63c6ad2944ede46bb62545fe7c5bbae0af",
	"concurrent":            "47cbbd0d7b6c6e357b269c02bff44f6a55e6c1608b0f73992b81c377ac71937d",
}

// pinned fails unless raw hashes to the digest recorded under name.
func pinned(tb testing.TB, name string, raw []byte) {
	tb.Helper()
	want, ok := snapshotPins[name]
	if !ok {
		tb.Fatalf("no pinned digest named %q", name)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		tb.Errorf("%s: snapshot digest %s, pinned %s", name, got, want)
	}
}

// chain builds a hop-aligned path graph from addresses (0 = star).
func chain(addrs ...uint32) *topo.Graph {
	g := topo.New()
	prev := topo.None
	for h, a := range addrs {
		v := g.AddVertex(h, packet.Addr(a))
		if prev != topo.None {
			g.AddEdge(prev, v)
		}
		prev = v
	}
	return g
}

func writeTo(tb testing.TB, a *Atlas) []byte {
	tb.Helper()
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(buf.Len()) {
		tb.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// written is a snapshot read back: header plus nodes by address.
type written struct {
	header traceio.AtlasHeader
	nodes  map[string]traceio.AtlasNodeV2
}

func readBack(tb testing.TB, raw []byte) written {
	tb.Helper()
	r, err := traceio.NewAtlasReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		tb.Fatal(err)
	}
	w := written{header: r.Header(), nodes: make(map[string]traceio.AtlasNodeV2)}
	for i := 0; i < r.NumShards(); i++ {
		sh, err := r.ReadShard(i)
		if err != nil {
			tb.Fatal(err)
		}
		for _, n := range sh.Nodes {
			w.nodes[n.Addr] = n
		}
	}
	return w
}

// Merging two traces that disagree on hop positions: the shared address
// gets one node with per-source annotations, not two hop-keyed copies.
func TestMergeIsAddressKeyed(t *testing.T) {
	t.Parallel()
	a := New(Options{Shards: 4})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(1, chain(40, 41, 20, 31)) // 20 at hop 2 here, hop 1 in pair 0
	w := readBack(t, writeTo(t, a))
	if w.header.Nodes != 6 || len(w.nodes) != 6 {
		t.Fatalf("nodes = %d (%d read), want 6", w.header.Nodes, len(w.nodes))
	}
	n, ok := w.nodes["0.0.0.20"]
	if !ok {
		t.Fatal("address 20 missing")
	}
	if want := [][2]int{{0, 1}, {1, 2}}; !reflect.DeepEqual(n.Seen, want) {
		t.Fatalf("Seen(20) = %v, want %v", n.Seen, want)
	}
	if _, ok := w.nodes["0.0.0.99"]; ok {
		t.Fatal("unknown address must be absent")
	}
	// Edges from both traces, deduplicated by (from, to) address.
	if w.header.Edges != 5 {
		t.Fatalf("edges = %d, want 5", w.header.Edges)
	}
	if want := []string{"0.0.0.30", "0.0.0.31"}; !reflect.DeepEqual(n.Succ, want) {
		t.Fatalf("Succ(20) = %v, want %v", n.Succ, want)
	}
}

// Stars have no address: they contribute neither nodes nor edges.
func TestStarsAreSkipped(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	a.AddGraph(0, chain(10, 0, 30))
	if h := readBack(t, writeTo(t, a)).header; h.Nodes != 2 || h.Edges != 0 {
		t.Fatalf("nodes=%d edges=%d, want 2 and 0", h.Nodes, h.Edges)
	}
}

// Snapshot bytes must not depend on shard count or ingestion order.
func TestSnapshotCanonicalAcrossShardsAndOrder(t *testing.T) {
	t.Parallel()
	graphs := []*topo.Graph{
		chain(10, 20, 30),
		chain(40, 20, 31),
		chain(50, 51, 52, 30),
	}
	build := func(shards int, order []int) *Atlas {
		a := New(Options{Shards: shards})
		for _, i := range order {
			a.AddGraph(i, graphs[i])
		}
		a.AddAliasSet([]packet.Addr{20, 31})
		a.AddDiamond(1, traceio.SurveyDiamond{Div: "0.0.0.40", Conv: "0.0.0.31", MaxWidth: 2, MaxLength: 2})
		return a
	}
	ref := writeTo(t, build(1, []int{0, 1, 2}))
	pinned(t, "canonical", ref)
	for _, shards := range []int{2, 7, 64} {
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
			if got := writeTo(t, build(shards, order)); !bytes.Equal(got, ref) {
				t.Fatalf("snapshot differs at shards=%d order=%v", shards, order)
			}
		}
	}
}

// Concurrent ingestion of disjoint pairs yields the same snapshot as a
// serial walk.
func TestConcurrentIngestDeterministic(t *testing.T) {
	t.Parallel()
	mk := func() []*topo.Graph {
		var gs []*topo.Graph
		for i := 0; i < 32; i++ {
			base := uint32(100 + i*3)
			gs = append(gs, chain(base, base+1, base+2, 77))
		}
		return gs
	}
	serial := New(Options{Shards: 4})
	for i, g := range mk() {
		serial.AddGraph(i, g)
	}
	conc := New(Options{Shards: 4})
	var wg sync.WaitGroup
	for i, g := range mk() {
		wg.Add(1)
		go func(i int, g *topo.Graph) {
			defer wg.Done()
			conc.AddGraph(i, g)
		}(i, g)
	}
	wg.Wait()
	want := writeTo(t, serial)
	pinned(t, "concurrent", want)
	if !bytes.Equal(want, writeTo(t, conc)) {
		t.Fatal("concurrent ingestion changed the snapshot")
	}
}

// Alias evidence accumulates across traces: sets sharing an address
// merge into one growing router.
func TestRouterIdentitiesGrow(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	a.AddAliasSet([]packet.Addr{10, 11})
	if got := a.Routers(); !reflect.DeepEqual(got, [][]packet.Addr{{10, 11}}) {
		t.Fatalf("Routers = %v", got)
	}
	a.AddAliasSet([]packet.Addr{11, 12})
	a.AddAliasSet([]packet.Addr{20, 21})
	if got := a.Routers(); !reflect.DeepEqual(got, [][]packet.Addr{{10, 11, 12}, {20, 21}}) {
		t.Fatalf("Routers = %v, want [[10 11 12] [20 21]]", got)
	}
}

// Census accumulates encounters per distinct (div, conv) key.
func TestDiamondCensus(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	d := traceio.SurveyDiamond{Div: "0.0.0.1", Conv: "0.0.0.9", MaxWidth: 2, MaxLength: 2}
	a.AddDiamond(4, d)
	d.MaxWidth = 5
	a.AddDiamond(2, d)
	a.AddDiamond(2, d)
	c := a.Census()
	if len(c) != 1 {
		t.Fatalf("census has %d entries, want 1", len(c))
	}
	want := traceio.AtlasDiamond{
		Div: "0.0.0.1", Conv: "0.0.0.9", Count: 3, Pairs: []int{2, 4},
		MaxWidth: 5, MaxLength: 2,
	}
	if !reflect.DeepEqual(c[0], want) {
		t.Fatalf("census = %+v, want %+v", c[0], want)
	}
}

// Save → read back through Compact → save again round-trips
// byte-stably: a single snapshot is Compact's fixed point, whatever
// shard and worker counts either side ran with.
func TestSaveLoadByteStable(t *testing.T) {
	t.Parallel()
	a := New(Options{Shards: 3})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(2, chain(40, 20, 31))
	a.AddAliasSet([]packet.Addr{20, 31})
	a.AddDiamond(0, traceio.SurveyDiamond{Div: "0.0.0.10", Conv: "0.0.0.30", MaxWidth: 3, MaxLength: 2})
	dir := t.TempDir()
	saved := saveDelta(t, dir, "a.atlas", a)
	first := readFile(t, saved)
	pinned(t, "saveload", first)
	if !bytes.Equal(first, writeTo(t, a)) {
		t.Fatal("Save and WriteTo disagree")
	}

	out := filepath.Join(dir, "b.atlas")
	if err := Compact(out, saved, nil, Options{Shards: 11, MergeWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if second := readFile(t, out); !bytes.Equal(first, second) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", first, second)
	}
	want := Stats{Nodes: 5, Edges: 4, Routers: 1, Diamonds: 1}
	if got := HeaderStats(readBack(t, first).header); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}
