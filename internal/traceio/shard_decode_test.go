package traceio

import (
	"runtime"
	"testing"

	"mmlpt/internal/packet"
)

// surveyBlockFixture is one full 4096-node shard block shaped like a
// survey world's: one to three observations per node, one to four
// successors, and a router for a quarter of the nodes (runs of four
// consecutive interfaces, each run one router line). Addresses and
// provenance span one- to three-digit octets and multi-digit pair
// indices, as a real snapshot's do.
func surveyBlockFixture() *atlasFixture {
	const n = DefaultAtlasShardNodes
	f := &atlasFixture{name: "survey-block", Pairs: []AtlasPair{{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"}}}
	addr := func(i int) packet.Addr { return packet.AddrFrom4(10, byte(i>>6), byte(i<<2|i%3), byte(1+i*37%250)) }
	for i := 0; i < n; i++ {
		nd := AtlasNodeV2{Addr: addr(i)}
		for k := 0; k <= i%3; k++ {
			nd.Seen = append(nd.Seen, [2]int{(i*131 + k*977) % 3000, 1 + (i+k)%24})
		}
		for k := 0; k <= i*7%4; k++ {
			nd.Succ = append(nd.Succ, addr((i+1+k*613)%n))
		}
		if k := i &^ 3; k%16 == 0 {
			nd.Router = addr(k)
		}
		f.Nodes = append(f.Nodes, nd)
	}
	for k := 0; k < n; k += 16 {
		f.Routers = append(f.Routers, AtlasRouter{Addrs: []packet.Addr{addr(k), addr(k + 1), addr(k + 2), addr(k + 3)}})
	}
	return f
}

// BenchmarkReadShard decodes one full block of surveyBlockFixture, the
// cost every cold point query, compaction input and bulk scan pays per
// shard. It reports ns/node beside B/op.
func BenchmarkReadShard(b *testing.B) {
	r := openBytes(b, surveyBlockFixture().encode(b, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadShard(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultAtlasShardNodes, "ns/node")
}

// TestReadShardAllocs pins the decode of a full survey-shaped block:
// allocations per block (its text, the read's staging chunk, the
// slabs' chunks, the node and router slices — none per node or line,
// and none for the shard header, which is parsed by hand) and bytes
// per node. The bytes are the block's text held once (about
// 110 a node), the 64 KiB staging chunk (16), the decoded nodes (72)
// and their lists; holding the text twice, as a read buffer and a
// string (330 B/node), fails the bound.
func TestReadShardAllocs(t *testing.T) {
	r := openBytes(t, surveyBlockFixture().encode(t, 0))
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	const runs, nodes = 20, DefaultAtlasShardNodes
	const maxAllocs, maxBytesPerNode = 15, 240
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := r.ReadShard(0); err != nil { // warm up, as AllocsPerRun does
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := r.ReadShard(0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Whole allocations per run, as AllocsPerRun counts them, so a
	// runtime allocation landing in the window does not tip the count.
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / nodes
	t.Logf("ReadShard: %d allocs/block, %.1f B/node", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("ReadShard: %d allocations per full block, pinned at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytesPerNode {
		t.Errorf("ReadShard: %.1f B/node on a full block, pinned at most %d", bytes, maxBytesPerNode)
	}
}
