package atlas

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

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
	nodes  map[packet.Addr]traceio.AtlasNodeV2
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
	w := written{header: r.Header(), nodes: make(map[packet.Addr]traceio.AtlasNodeV2)}
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
	a := New(Options{})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(1, chain(40, 41, 20, 31)) // 20 at hop 2 here, hop 1 in pair 0
	w := readBack(t, writeTo(t, a))
	if w.header.Nodes != 6 || len(w.nodes) != 6 {
		t.Fatalf("nodes = %d (%d read), want 6", w.header.Nodes, len(w.nodes))
	}
	n, ok := w.nodes[20]
	if !ok {
		t.Fatal("address 20 missing")
	}
	if want := [][2]int{{0, 1}, {1, 2}}; !reflect.DeepEqual(n.Seen, want) {
		t.Fatalf("Seen(20) = %v, want %v", n.Seen, want)
	}
	if _, ok := w.nodes[99]; ok {
		t.Fatal("unknown address must be absent")
	}
	// Edges from both traces, deduplicated by (from, to) address.
	if w.header.Edges != 5 {
		t.Fatalf("edges = %d, want 5", w.header.Edges)
	}
	if want := []packet.Addr{30, 31}; !reflect.DeepEqual(n.Succ, want) {
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

// Snapshot bytes must not depend on ingestion order.
func TestSnapshotCanonicalAcrossShardsAndOrder(t *testing.T) {
	t.Parallel()
	graphs := []*topo.Graph{
		chain(10, 20, 30),
		chain(40, 20, 31),
		chain(50, 51, 52, 30),
	}
	build := func(order []int) *Atlas {
		a := New(Options{})
		for _, i := range order {
			a.AddGraph(i, graphs[i])
		}
		a.AddAliasSet([]packet.Addr{20, 31})
		a.AddDiamond(1, traceio.SurveyDiamond{Div: "0.0.0.40", Conv: "0.0.0.31", MaxWidth: 2, MaxLength: 2})
		return a
	}
	ref := writeTo(t, build([]int{0, 1, 2}))
	pin.Check(t, "atlas/canonical", ref)
	for _, order := range [][]int{{2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
		if got := writeTo(t, build(order)); !bytes.Equal(got, ref) {
			t.Fatalf("snapshot differs at order=%v", order)
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
	serial := New(Options{})
	for i, g := range mk() {
		serial.AddGraph(i, g)
	}
	conc := New(Options{})
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
	pin.Check(t, "atlas/concurrent", want)
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

// A record with more hops than a TTL allows, or with a successor naming
// no vertex — from a hostile runner's shipment or a damaged log — is an
// ingest error, not a panic.
func TestHostileHopIsAnError(t *testing.T) {
	t.Parallel()
	tooDeep := &traceio.SurveyRecord{PairIndex: 3, Succ: [][]int32{}}
	for h := 0; h < 256; h++ {
		tooDeep.Hops = append(tooDeep.Hops, []packet.Addr{})
	}
	dangling := &traceio.SurveyRecord{PairIndex: 3, Succ: [][]int32{{1}}}
	dangling.Hops = append(dangling.Hops, []packet.Addr{1})
	for name, rec := range map[string]*traceio.SurveyRecord{"256 hops": tooDeep, "dangling successor": dangling} {
		if err := New(Options{}).AddRecord(rec); err == nil {
			t.Fatalf("AddRecord accepted a record with %s", name)
		}
	}
}

// Save → read back through Compact → save again round-trips
// byte-stably: a single snapshot is Compact's fixed point, whatever
// worker counts either side ran with.
func TestSaveLoadByteStable(t *testing.T) {
	t.Parallel()
	a := New(Options{MergeWorkers: 1})
	a.AddGraph(0, chain(10, 20, 30))
	a.AddGraph(2, chain(40, 20, 31))
	a.AddAliasSet([]packet.Addr{20, 31})
	a.AddDiamond(0, traceio.SurveyDiamond{Div: "0.0.0.10", Conv: "0.0.0.30", MaxWidth: 3, MaxLength: 2})
	dir := t.TempDir()
	saved := saveDelta(t, dir, "a.atlas", a)
	first := readFile(t, saved)
	pin.Check(t, "atlas/saveload", first)
	if !bytes.Equal(first, writeTo(t, a)) {
		t.Fatal("Save and WriteTo disagree")
	}

	out := filepath.Join(dir, "b.atlas")
	if err := Compact(out, saved, nil, Options{MergeWorkers: 2}); err != nil {
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
