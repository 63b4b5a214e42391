package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// fixture is a snapshot's content in file form: nodes in canonical
// order with successor lists and router representatives filled.
type fixture struct {
	Pairs    []traceio.AtlasPair
	Nodes    []traceio.AtlasNodeV2
	Routers  []traceio.AtlasRouter
	Diamonds []traceio.AtlasDiamond
}

func sampleSnapshot() *fixture {
	return &fixture{
		Pairs: []traceio.AtlasPair{
			{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"},
			{Pair: 1, Src: "192.0.2.2", Dst: "203.0.113.2"},
		},
		Nodes: []traceio.AtlasNodeV2{
			{Addr: "10.0.0.1", Seen: [][2]int{{0, 1}}, Succ: []string{"10.0.0.2", "10.0.0.3"}},
			{Addr: "10.0.0.2", Seen: [][2]int{{0, 2}, {1, 3}}, Succ: []string{"10.0.0.4"}, Router: "10.0.0.2"},
			{Addr: "10.0.0.3", Seen: [][2]int{{0, 2}}, Succ: []string{"10.0.0.4"}, Router: "10.0.0.2"},
			{Addr: "10.0.0.4", Seen: [][2]int{{0, 3}}},
			{Addr: "10.0.0.5", Seen: [][2]int{{1, 1}}, Succ: []string{"10.0.0.6"}},
			{Addr: "10.0.0.6", Seen: [][2]int{{1, 2}}, Succ: []string{"10.0.0.2"}},
			{Addr: "10.0.0.7", Seen: [][2]int{{1, 4}}, Succ: []string{"10.0.0.8"}, Router: "10.0.0.7"},
			{Addr: "10.0.0.8", Seen: [][2]int{{1, 5}}, Succ: []string{"10.0.0.9"}},
			{Addr: "10.0.0.9", Seen: [][2]int{{1, 6}}, Router: "10.0.0.7"},
		},
		Routers: []traceio.AtlasRouter{
			{Addrs: []string{"10.0.0.2", "10.0.0.3"}},
			{Addrs: []string{"10.0.0.7", "10.0.0.9"}},
		},
		Diamonds: []traceio.AtlasDiamond{
			{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 2, Pairs: []int{0}, MaxWidth: 2, MaxLength: 2},
		},
	}
}

// writeSnapshot cuts the fixture into shard blocks of per nodes — small
// cuts give a nine-node file several shards to route between — places
// each router with its representative, and streams the file.
func writeSnapshot(t *testing.T, dir, name string, s *fixture, per int) string {
	t.Helper()
	spec := traceio.AtlasStreamSpec{
		Pairs: s.Pairs, Nodes: len(s.Nodes), Routers: len(s.Routers),
		Shards: (len(s.Nodes) + per - 1) / per, Diamonds: s.Diamonds,
	}
	blocks := make([]*traceio.AtlasShard, spec.Shards)
	mins := make([]packet.Addr, spec.Shards)
	for i := range blocks {
		nodes := s.Nodes[i*per : min((i+1)*per, len(s.Nodes))]
		blocks[i] = &traceio.AtlasShard{
			Header: traceio.AtlasShardHeader{Shard: i, Nodes: len(nodes), Min: nodes[0].Addr, Max: nodes[len(nodes)-1].Addr},
			Nodes:  nodes,
		}
		mins[i] = addr(t, nodes[0].Addr)
		for _, n := range nodes {
			spec.Edges += len(n.Succ)
		}
	}
	for _, rt := range s.Routers {
		blk := blocks[traceio.AtlasShardForAddr(mins, addr(t, rt.Addrs[0]))]
		blk.Routers = append(blk.Routers, rt)
		blk.Header.Routers++
	}
	var buf bytes.Buffer
	enc, err := traceio.NewAtlasStreamEncoder(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := enc.WriteBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func addr(t *testing.T, s string) packet.Addr {
	t.Helper()
	a, err := packet.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestServeQueries(t *testing.T) {
	t.Parallel()
	snap := sampleSnapshot()
	path := writeSnapshot(t, t.TempDir(), "a.atlas", snap, 3)
	svc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := atlas.Stats{Pairs: 2, Nodes: 9, Edges: 8, Routers: 2, Diamonds: 1}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}

	obs, err := svc.Provenance(addr(t, "10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obs, []atlas.Obs{{Pair: 0, Hop: 2}, {Pair: 1, Hop: 3}}) {
		t.Fatalf("Provenance = %+v", obs)
	}

	// Aliased member: full component, queried by rep and by non-rep.
	for _, q := range []string{"10.0.0.2", "10.0.0.3"} {
		r, err := svc.Router(addr(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, []packet.Addr{addr(t, "10.0.0.2"), addr(t, "10.0.0.3")}) {
			t.Fatalf("Router(%s) = %v", q, r)
		}
	}
	// Unaliased address: singleton.
	r, err := svc.Router(addr(t, "10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, []packet.Addr{addr(t, "10.0.0.1")}) {
		t.Fatalf("Router(10.0.0.1) = %v", r)
	}

	ds, err := svc.DiamondCensus()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, snap.Diamonds) {
		t.Fatalf("DiamondCensus = %+v", ds)
	}

	all, err := svc.Routers()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0][0] != addr(t, "10.0.0.2") || all[1][0] != addr(t, "10.0.0.7") {
		t.Fatalf("Routers = %v", all)
	}

	if _, err := svc.Provenance(addr(t, "10.99.99.99")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Provenance err = %v, want ErrNotFound", err)
	}
	if _, err := svc.Router(addr(t, "10.99.99.99")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Router err = %v, want ErrNotFound", err)
	}
}

// The acceptance criterion: a cold point query decodes only the owning
// shard — never the whole file.
func TestServeDecodeCounter(t *testing.T) {
	t.Parallel()
	snap := sampleSnapshot()
	// 2 nodes per shard → 5 shards over 9 nodes.
	path := writeSnapshot(t, t.TempDir(), "a.atlas", snap, 2)
	svc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if n := svc.Metrics().ShardDecodes; n != 0 {
		t.Fatalf("open decoded %d shards, want 0", n)
	}
	if _, err := svc.Stats(); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().ShardDecodes; n != 0 {
		t.Fatalf("Stats decoded %d shards, want 0", n)
	}

	// Cold provenance: exactly the owning shard.
	if _, err := svc.Provenance(addr(t, "10.0.0.5")); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().ShardDecodes; n != 1 {
		t.Fatalf("cold Provenance decoded %d shards, want 1", n)
	}

	// Cold router lookup where the queried address is the
	// representative: still exactly one shard.
	if _, err := svc.Router(addr(t, "10.0.0.7")); err != nil {
		t.Fatal(err)
	}
	after := svc.Metrics().ShardDecodes
	if after != 2 {
		t.Fatalf("cold rep Router decoded %d new shards, want 1", after-1)
	}

	// Warm repeat: zero new decodes, counted as cache hits.
	if _, err := svc.Router(addr(t, "10.0.0.7")); err != nil {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.ShardDecodes != after {
		t.Fatalf("warm Router decoded %d new shards, want 0", m.ShardDecodes-after)
	}
	if m.CacheHits == 0 {
		t.Fatal("warm Router recorded no cache hit")
	}
	if m.ShardDecodes >= uint64(5) {
		t.Fatalf("point queries decoded %d of 5 shards — full-file decode", m.ShardDecodes)
	}
}

// A version 1 file is refused at open with the reader's explicit
// unsupported-version error; a failed Swap to one keeps the current
// generation.
func TestServeV1Snapshot(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.atlas")
	if err := os.WriteFile(v1, []byte(`{"version":1,"kind":"atlas","nodes":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1, Options{}); err == nil || !strings.Contains(err.Error(), "version 1 is no longer supported") {
		t.Fatalf("Open on a v1 file: err = %v", err)
	}
	svc, err := Open(writeSnapshot(t, dir, "a.atlas", sampleSnapshot(), 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Swap(v1); err == nil {
		t.Fatal("Swap to a v1 file succeeded")
	}
	if st, err := svc.Stats(); err != nil || st.Nodes != 9 {
		t.Fatalf("old generation gone: %+v, %v", st, err)
	}
}

// A tiny cache still answers everything correctly, it just evicts.
func TestServeLRUEviction(t *testing.T) {
	t.Parallel()
	snap := sampleSnapshot()
	path := writeSnapshot(t, t.TempDir(), "a.atlas", snap, 2)
	svc, err := Open(path, Options{CacheShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for pass := 0; pass < 2; pass++ {
		for _, n := range snap.Nodes {
			if _, err := svc.Provenance(addr(t, n.Addr)); err != nil {
				t.Fatalf("pass %d, %s: %v", pass, n.Addr, err)
			}
		}
	}
	if m := svc.Metrics(); m.CacheEvictions == 0 {
		t.Fatalf("CacheShards=1 over 5 shards recorded no evictions: %+v", m)
	}
}

// The race test the issue requires: concurrent readers while Swap flips
// generations. Run with -race. Readers must always see a complete
// generation — one of the two snapshots, never a mix, never a closed
// reader.
func TestServeSwapConcurrent(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	snapA := sampleSnapshot()
	snapB := sampleSnapshot()
	// B differs: one more node at the end and a different census count.
	snapB.Nodes = append(snapB.Nodes, traceio.AtlasNodeV2{Addr: "10.0.0.10", Seen: [][2]int{{1, 7}}})
	snapB.Diamonds[0].Count = 5
	pathA := writeSnapshot(t, dir, "a.atlas", snapA, 2)
	pathB := writeSnapshot(t, dir, "b.atlas", snapB, 3)

	svc, err := Open(pathA, Options{CacheShards: 2})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 300
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a2 := addr(t, "10.0.0.2")
			for j := 0; j < iters; j++ {
				st, err := svc.Stats()
				if err != nil {
					errc <- err
					return
				}
				if st.Nodes != 9 && st.Nodes != 10 {
					errc <- errors.New("stats from neither generation")
					return
				}
				if _, err := svc.Provenance(a2); err != nil {
					errc <- err
					return
				}
				if _, err := svc.Router(a2); err != nil {
					errc <- err
					return
				}
				if ds, err := svc.DiamondCensus(); err != nil {
					errc <- err
					return
				} else if c := ds[0].Count; c != 2 && c != 5 {
					errc <- errors.New("census from neither generation")
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := [2]string{pathB, pathA}
		for j := 0; j < 40; j++ {
			if err := svc.Swap(paths[j%2]); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.Swaps != 40 {
		t.Fatalf("Swaps = %d, want 40", m.Swaps)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Stats err = %v, want ErrClosed", err)
	}
	if err := svc.Swap(pathA); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Swap err = %v, want ErrClosed", err)
	}
}

// Swap to a bad path keeps the old generation serving.
func TestServeSwapFailureKeepsGeneration(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "a.atlas", sampleSnapshot(), traceio.DefaultAtlasShardNodes)
	svc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Swap(filepath.Join(dir, "missing.atlas")); err == nil {
		t.Fatal("Swap to missing file succeeded")
	}
	if st, err := svc.Stats(); err != nil || st.Nodes != 9 {
		t.Fatalf("old generation gone: %+v, %v", st, err)
	}
}
