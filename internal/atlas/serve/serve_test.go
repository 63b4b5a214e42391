package serve

import (
	"bytes"
	"errors"
	"fmt"
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
		Routers: []traceio.AtlasRouter{
			{Addrs: ips("10.0.0.2", "10.0.0.3")},
			{Addrs: ips("10.0.0.7", "10.0.0.9")},
		},
		Diamonds: []traceio.AtlasDiamond{
			{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 2, Pairs: []int{0}, MaxWidth: 2, MaxLength: 2},
		},
	}
}

// writeSnapshot cuts the fixture into shard blocks of per nodes — small
// cuts give a nine-node file several shards to route between — places
// each router with its representative, and streams the file.
func writeSnapshot(t testing.TB, dir, name string, s *fixture, per int) string {
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
		mins[i] = nodes[0].Addr
		for _, n := range nodes {
			spec.Edges += len(n.Succ)
		}
	}
	for _, rt := range s.Routers {
		blk := blocks[traceio.AtlasShardForAddr(mins, rt.Addrs[0])]
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

// ip reads an address's canonical text, short for the fixtures; ips
// reads a list.
func ip(s string) packet.Addr {
	var a packet.Addr
	if err := a.UnmarshalText([]byte(s)); err != nil {
		panic(err)
	}
	return a
}

func ips(ss ...string) []packet.Addr {
	out := make([]packet.Addr, len(ss))
	for i, s := range ss {
		out[i] = ip(s)
	}
	return out
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

	obs, err := svc.Provenance(ip("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obs, []atlas.Obs{{Pair: 0, Hop: 2}, {Pair: 1, Hop: 3}}) {
		t.Fatalf("Provenance = %+v", obs)
	}

	// Aliased member: full component, queried by rep and by non-rep.
	for _, q := range ips("10.0.0.2", "10.0.0.3") {
		r, err := svc.Router(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, []packet.Addr{ip("10.0.0.2"), ip("10.0.0.3")}) {
			t.Fatalf("Router(%s) = %v", q, r)
		}
	}
	// Unaliased address: singleton.
	r, err := svc.Router(ip("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, []packet.Addr{ip("10.0.0.1")}) {
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
	if len(all) != 2 || all[0][0] != ip("10.0.0.2") || all[1][0] != ip("10.0.0.7") {
		t.Fatalf("Routers = %v", all)
	}

	if _, err := svc.Provenance(ip("10.99.99.99")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Provenance err = %v, want ErrNotFound", err)
	}
	if _, err := svc.Router(ip("10.99.99.99")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Router err = %v, want ErrNotFound", err)
	}
}

// The acceptance criterion: a cold point query decodes only the owning
// shard — never the whole file.
// A hot point query, its shard already decoded, allocates only the
// slice it returns: a decoded shard is searched by address value, so no
// lookup key is formatted and no view is built beside the shard.
func TestHotPointQueriesAllocateOnlyTheirAnswer(t *testing.T) {
	snap := sampleSnapshot()
	svc, err := Open(writeSnapshot(t, t.TempDir(), "a.atlas", snap, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, n := range snap.Nodes {
		if _, err := svc.Router(n.Addr); err != nil { // warm the shards
			t.Fatal(err)
		}
		router := testing.AllocsPerRun(50, func() {
			if _, err := svc.Router(n.Addr); err != nil {
				t.Fatal(err)
			}
		})
		prov := testing.AllocsPerRun(50, func() {
			if _, err := svc.Provenance(n.Addr); err != nil {
				t.Fatal(err)
			}
		})
		if router > 1 || prov > 1 {
			t.Errorf("%s: Router %.1f, Provenance %.1f allocs per hot query, pinned at most 1 each", n.Addr, router, prov)
		}
	}
}

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
	if _, err := svc.Provenance(ip("10.0.0.5")); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().ShardDecodes; n != 1 {
		t.Fatalf("cold Provenance decoded %d shards, want 1", n)
	}

	// Cold router lookup where the queried address is the
	// representative: still exactly one shard.
	if _, err := svc.Router(ip("10.0.0.7")); err != nil {
		t.Fatal(err)
	}
	after := svc.Metrics().ShardDecodes
	if after != 2 {
		t.Fatalf("cold rep Router decoded %d new shards, want 1", after-1)
	}

	// Warm repeat: zero new decodes, counted as cache hits.
	if _, err := svc.Router(ip("10.0.0.7")); err != nil {
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

// Two passes over every node of a five-shard file answer every query
// correctly, and each shard is decoded exactly once: the first touch
// builds its line index, every later query reads one line, and nothing
// is evicted.
func TestServeIndexesEachShardOnce(t *testing.T) {
	t.Parallel()
	snap := sampleSnapshot()
	path := writeSnapshot(t, t.TempDir(), "a.atlas", snap, 2)
	svc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	routerOf := map[packet.Addr][]packet.Addr{}
	for _, rt := range snap.Routers {
		for _, a := range rt.Addrs {
			routerOf[a] = rt.Addrs
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, n := range snap.Nodes {
			obs, err := svc.Provenance(n.Addr)
			if err != nil {
				t.Fatalf("pass %d, %s: %v", pass, n.Addr, err)
			}
			want := make([]atlas.Obs, len(n.Seen))
			for i, o := range n.Seen {
				want[i] = atlas.Obs{Pair: o[0], Hop: o[1]}
			}
			if !reflect.DeepEqual(obs, want) {
				t.Fatalf("pass %d: Provenance(%s) = %v, want %v", pass, n.Addr, obs, want)
			}
			r, err := svc.Router(n.Addr)
			if err != nil {
				t.Fatalf("pass %d, %s: %v", pass, n.Addr, err)
			}
			wantR := routerOf[n.Addr]
			if wantR == nil {
				wantR = []packet.Addr{n.Addr}
			}
			if !reflect.DeepEqual(r, wantR) {
				t.Fatalf("pass %d: Router(%s) = %v, want %v", pass, n.Addr, r, wantR)
			}
		}
	}
	if m := svc.Metrics(); m.ShardDecodes != 5 || m.CacheEvictions != 0 {
		t.Fatalf("two passes over 5 shards: %+v, want 5 decodes and no evictions", m)
	}
}

// A bad line anywhere in a shard fails every point query into that
// shard, not only queries for the bad line's own address: the first
// touch validates the whole block. Shard 1 of a three-node cut holds
// 10.0.0.4, .5 and .6; .5's and .6's lines, equal in length, are
// swapped, so the block is out of canonical order while .4's line and
// every offset stay intact. Concurrent first touches all see the
// reader's error, the failure is not kept (a repeat reads the shard
// again, and once the file is repaired in place the query succeeds),
// and the other shards answer throughout.
func TestServeBadLineFailsItsShard(t *testing.T) {
	t.Parallel()
	path := writeSnapshot(t, t.TempDir(), "a.atlas", sampleSnapshot(), 3)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l5 := `{"addr":"10.0.0.5","seen":[[1,1]],"succ":["10.0.0.6"]}`
	l6 := `{"addr":"10.0.0.6","seen":[[1,2]],"succ":["10.0.0.2"]}`
	if len(l5) != len(l6) || !bytes.Contains(good, []byte(l5+"\n"+l6+"\n")) {
		t.Fatal("fixture lines changed; pick two equal-length adjacent node lines")
	}
	bad := bytes.Replace(good, []byte(l5+"\n"+l6+"\n"), []byte(l6+"\n"+l5+"\n"), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := traceio.OpenAtlasFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, want := r.ReadShard(1)
	r.Close()
	if want == nil {
		t.Fatal("ReadShard accepted the swapped block")
	}

	svc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	q := ip("10.0.0.4")
	check := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want the reader's %q", what, err, want)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Provenance(q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		check(fmt.Sprintf("concurrent Provenance %d", i), err)
	}
	if n := svc.Metrics().ShardDecodes; n != 0 {
		t.Fatalf("failed first touches counted %d decodes, want 0", n)
	}
	_, err = svc.Provenance(q)
	check("repeat Provenance", err)
	_, err = svc.Router(q)
	check("Router", err)
	for _, a := range ips("10.0.0.1", "10.0.0.7", "10.0.0.9") {
		if _, err := svc.Provenance(a); err != nil {
			t.Errorf("Provenance(%s) in a good shard: %v", a, err)
		}
		if _, err := svc.Router(a); err != nil {
			t.Errorf("Router(%s) in a good shard: %v", a, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if obs, err := svc.Provenance(q); err != nil || !reflect.DeepEqual(obs, []atlas.Obs{{Pair: 0, Hop: 3}}) {
		t.Fatalf("Provenance after repair = %v, %v: the failure was kept", obs, err)
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
	snapB.Nodes = append(snapB.Nodes, traceio.AtlasNodeV2{Addr: ip("10.0.0.10"), Seen: [][2]int{{1, 7}}})
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
			a2 := ip("10.0.0.2")
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
