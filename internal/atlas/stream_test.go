package atlas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// genInto ingests a randomized survey-shaped sequence into a with the
// PR 5 topology generator: multipath routes of chained diamonds,
// per-hop alias sets, a census entry and a pair identity per route.
// Deterministic in (seed, pairs). Every call allocates addresses from
// the same base, so sequences of different seeds overlap heavily.
func genInto(tb testing.TB, a *Atlas, seed uint64, pairs int) {
	tb.Helper()
	rng := nprand.New(seed)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	spec := fakeroute.GenSpec{
		Diamonds: 2, WidthMin: 2, WidthMax: 4, LenMin: 2, LenMax: 4,
		MeshProb: 0.3, AsymProb: 0.3, StarProb: 0.1,
	}
	for i := 0; i < pairs; i++ {
		dst := dstAlloc.Next()
		gp := fakeroute.GenerateMultipath(rng.Fork(uint64(i)), alloc, dst, spec)
		g := gp.Graph
		a.AddGraph(i, g)
		byHop := make(map[int][]packet.Addr)
		var first, last packet.Addr
		for vi := range g.Vertices {
			v := &g.Vertices[vi]
			if v.Addr == topo.StarAddr {
				continue
			}
			if first == 0 {
				first = v.Addr
			}
			last = v.Addr
			byHop[v.Hop] = append(byHop[v.Hop], v.Addr)
		}
		for _, set := range byHop {
			if len(set) >= 2 {
				a.AddAliasSet(set)
			}
		}
		a.AddDiamond(i, traceio.SurveyDiamond{
			Div: first.String(), Conv: last.String(), MaxWidth: 3, MaxLength: 3,
		})
		a.AddPair(i, "192.0.2.1", dst.String())
	}
}

// genAtlas is one generated sequence in a fresh atlas.
func genAtlas(tb testing.TB, seed uint64, pairs int, opt Options) *Atlas {
	tb.Helper()
	a := New(opt)
	genInto(tb, a, seed, pairs)
	return a
}

func genPin(seed uint64, pairs int) string {
	return fmt.Sprintf("atlas/gen/seed=%d/pairs=%d", seed, pairs)
}

// The writer pin: WriteTo's bytes are the ones the materialized encode
// produced — for the empty atlas, a handmade atlas, single-shard
// generator atlases (among them the inputs of compact/5+6+7) and two
// multi-shard ones.
func TestWriteToMatchesMaterializedEncode(t *testing.T) {
	t.Parallel()
	pin.Check(t, "atlas/empty", writeTo(t, New(Options{})))
	hand := New(Options{})
	hand.AddGraph(0, chain(0xa000001, 0, 0xa000003))
	hand.AddGraph(1, chain(0xa000003, 0xa000001))
	hand.AddAliasSet([]packet.Addr{0xa000001, 0xa000003})
	pin.Check(t, "atlas/hand", writeTo(t, hand))
	for _, c := range []struct {
		seed  uint64
		pairs int
	}{{5, 30}, {6, 20}, {7, 10}, {9, 3}, {11, 40}, {13, 600}, {14, 400}} {
		pin.Check(t, genPin(c.seed, c.pairs), writeTo(t, genAtlas(t, c.seed, c.pairs, Options{})))
	}
}

// The byte-determinism property: every merge worker count produces
// identical — and pinned — snapshot bytes, across randomized generator
// topologies.
func TestWriteToDeterministicAcrossWorkersAndShards(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 2, 3} {
		var want []byte
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got := writeTo(t, genAtlas(t, seed, 25, Options{MergeWorkers: workers}))
			if want == nil {
				want = got
				pin.Check(t, genPin(seed, 25), want)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: bytes differ at workers=%d", seed, workers)
			}
		}
	}
}

// Every successor the atlas holds is a node of its own, so the header's
// edge total is exactly the sum of the successor sets: the invariant that
// lets WriteTo emit each successor set whole, with no lookup of its
// targets. Generator routes with unresponsive hops put star vertices
// next to responsive ones, the edges AddGraph must drop.
func TestEverySuccessorIsANode(t *testing.T) {
	t.Parallel()
	spec := fakeroute.GenSpec{
		Diamonds: 2, WidthMin: 2, WidthMax: 4, LenMin: 2, LenMax: 4,
		MeshProb: 0.3, StarProb: 0.3, ChainMin: 1, ChainMax: 3,
	}
	for _, seed := range []uint64{1, 2, 3} {
		a := New(Options{})
		rng := nprand.New(seed)
		alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
		dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
		starEdges := 0
		for i := 0; i < 200; i++ {
			g := fakeroute.GenerateMultipath(rng.Fork(uint64(i)), alloc, dstAlloc.Next(), spec).Graph
			for u := range g.Vertices {
				for _, w := range g.Succ(topo.VertexID(u)) {
					if g.Vertices[u].Addr == topo.StarAddr || g.V(w).Addr == topo.StarAddr {
						starEdges++
					}
				}
			}
			a.AddGraph(i, g)
		}
		if starEdges == 0 {
			t.Fatalf("seed %d: no edge touches a star hop", seed)
		}
		edges := 0
		for _, st := range a.nodes {
			for _, wa := range st.succ {
				if _, ok := a.index[wa]; !ok {
					t.Fatalf("seed %d: %v has successor %v, which is not a node", seed, st.addr, wa)
				}
			}
			edges += len(st.succ)
		}
		if h := readBack(t, writeTo(t, a)).header; h.Edges != edges {
			t.Fatalf("seed %d: header edges %d, successor sets hold %d", seed, h.Edges, edges)
		}
	}
}

// saveDelta persists one atlas to dir and returns the path.
func saveDelta(tb testing.TB, dir, name string, a *Atlas) string {
	tb.Helper()
	path := filepath.Join(dir, name)
	if err := a.Save(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// The compaction pin: the streaming k-way Compact over saved files is
// byte-identical to WriteTo of one atlas that ingested the same
// sequences directly, and both are the bytes the decode-everything merge
// they replaced produced. Inputs overlap addresses, routers,
// census entries and pair indices; tested serial and parallel, with and
// without a base, single- and multi-shard.
func TestCompactMatchesDirectIngest(t *testing.T) {
	t.Parallel()
	type seq struct {
		seed  uint64
		pairs int
	}
	for name, seqs := range map[string][]seq{
		"compact/5+6+7": {{5, 30}, {6, 20}, {7, 10}},
		"compact/13+14": {{13, 600}, {14, 400}},
	} {
		dir := t.TempDir()
		direct := New(Options{})
		var inputs []string
		for i, s := range seqs {
			a := genAtlas(t, s.seed, s.pairs, Options{})
			inputs = append(inputs, saveDelta(t, dir, fmt.Sprintf("in%d.atlas", i), a))
			genInto(t, direct, s.seed, s.pairs)
		}
		want := writeTo(t, direct)
		pin.Check(t, "atlas/"+name, want)

		for _, workers := range []int{1, 4} {
			for _, withBase := range []bool{true, false} {
				out := filepath.Join(dir, fmt.Sprintf("out_w%d_b%v.atlas", workers, withBase))
				base, deltas := "", inputs
				if withBase {
					base, deltas = inputs[0], inputs[1:]
				}
				if err := Compact(out, base, deltas, Options{MergeWorkers: workers}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(readFile(t, out), want) {
					t.Fatalf("%s workers=%d base=%v: compact bytes differ from direct ingest", name, workers, withBase)
				}
			}
		}
	}
}

func TestCompactEmptyInput(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	in := saveDelta(t, dir, "empty.atlas", New(Options{}))
	out := filepath.Join(dir, "out.atlas")
	if err := Compact(out, "", []string{in}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, out), writeTo(t, New(Options{}))) {
		t.Fatal("compacting an empty input differs from the empty encode")
	}
}

// Census and Routers sort outside the atlas lock; a concurrent ingester
// must neither race with them (run with -race) nor corrupt their
// canonical order.
func TestQueriesDuringConcurrentIngest(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bounded: every query below is O(atlas), so an ingester that
		// outruns a CPU-starved query loop without limit turns the
		// test quadratic.
		for i := 0; i < 1<<14; i++ {
			select {
			case <-stop:
				return
			default:
			}
			base := uint32(0xa000000 + i*8)
			a.AddGraph(i, chain(base, base+1, base+2))
			a.AddAliasSet([]packet.Addr{packet.Addr(base), packet.Addr(base + 1)})
			a.AddDiamond(i, traceio.SurveyDiamond{Div: "10.0.0.1", Conv: "10.0.0.2", MaxWidth: 2, MaxLength: 2})
		}
	}()
	for i := 0; i < 200; i++ {
		for _, g := range a.Routers() {
			for j := 1; j < len(g); j++ {
				if g[j-1] >= g[j] {
					t.Errorf("router group out of order: %v", g)
				}
			}
		}
		ds := a.Census()
		for j := 1; j < len(ds); j++ {
			if ds[j-1].Div > ds[j].Div || (ds[j-1].Div == ds[j].Div && ds[j-1].Conv >= ds[j].Conv) {
				t.Errorf("census out of order at %d", j)
			}
		}
	}
	close(stop)
	wg.Wait()
	// The atlas must still produce a canonical snapshot after the mixed
	// load: the file verifies and is Compact's fixed point.
	dir := t.TempDir()
	saved := saveDelta(t, dir, "a.atlas", a)
	readBack(t, readFile(t, saved))
	out := filepath.Join(dir, "b.atlas")
	if err := Compact(out, saved, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, saved), readFile(t, out)) {
		t.Fatal("post-ingest snapshot not canonical")
	}
}

// A node's observations are canonicalized (sorted, deduped) by the
// first write after they arrive and left alone until new ones do.
func TestProvenanceLazyCanonicalization(t *testing.T) {
	a := New(Options{})
	a.AddGraph(3, chain(0xa000001, 0xa000002))
	a.AddGraph(1, chain(0xa000001, 0xa000002))
	a.AddGraph(1, chain(0xa000001, 0xa000002)) // duplicate: must dedup
	addr := packet.Addr(0xa000001)
	st := &a.nodes[a.index[addr]]
	if !st.dirty {
		t.Fatal("fresh observations did not mark the node dirty")
	}

	want := [][2]int{{1, 0}, {3, 0}}
	if got := readBack(t, writeTo(t, a)).nodes[addr].Seen; !reflect.DeepEqual(got, want) {
		t.Fatalf("Seen = %v; want %v", got, want)
	}
	// Steady state: the write canonicalized in place and cleared the
	// flag, so the next write has nothing to re-sort.
	if st.dirty || !reflect.DeepEqual(st.seen, []Obs{{Pair: 1, Hop: 0}, {Pair: 3, Hop: 0}}) {
		t.Fatalf("after write: dirty=%v seen=%v", st.dirty, st.seen)
	}
	// New observations re-dirty the node and are folded back in sorted.
	a.AddGraph(0, chain(0xa000001))
	if !st.dirty {
		t.Fatal("new observation did not re-dirty the node")
	}
	want = append([][2]int{{0, 0}}, want...)
	if got := readBack(t, writeTo(t, a)).nodes[addr].Seen; !reflect.DeepEqual(got, want) {
		t.Fatalf("after new obs: Seen = %v; want %v", got, want)
	}
}

// FuzzCompactFixpoint holds Compact to the reader's acceptance: any
// file AtlasReader.Verify accepts compacts, and compacting the result
// again is byte-identical — one pass canonicalizes whatever a foreign
// writer left non-canonical, and canonical files are a fixed point.
func FuzzCompactFixpoint(f *testing.F) {
	f.Add(writeTo(f, genAtlas(f, 9, 3, Options{})))
	f.Add(writeTo(f, New(Options{})))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := traceio.NewAtlasReader(bytes.NewReader(data), int64(len(data)))
		if err != nil || r.Verify() != nil {
			t.Skip()
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in.atlas")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		once, twice := filepath.Join(dir, "once.atlas"), filepath.Join(dir, "twice.atlas")
		if err := Compact(once, "", []string{in}, Options{MergeWorkers: 2}); err != nil {
			t.Fatalf("verified file does not compact: %v", err)
		}
		readBack(t, readFile(t, once))
		if err := Compact(twice, once, nil, Options{MergeWorkers: 1}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, once), readFile(t, twice)) {
			t.Fatal("compacting a compacted file changed its bytes")
		}
	})
}
