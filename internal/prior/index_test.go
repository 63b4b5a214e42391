package prior_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// surveyAtlas saves the atlas of an IP-level MDA survey of world seed
// (what `survey -level ip -atlas` writes, as the ip-resurvey-prior
// workload's first pass does) over the given [start, end) spans of its
// job list, all into one snapshot; spans that leave jobs out give the
// snapshot's pair indices gaps.
func surveyAtlas(t testing.TB, seed uint64, pairs int, spans ...[2]int) string {
	t.Helper()
	u := survey.Generate(survey.GenConfig{Seed: seed, Pairs: pairs})
	as := survey.NewAtlasSink(atlas.Options{})
	if len(spans) == 0 {
		spans = [][2]int{{0, pairs}}
	}
	for _, sp := range spans {
		if _, err := survey.Run(u, survey.RunConfig{
			Algo: survey.AlgoMDA, Retries: 1,
			Trace:     mda.Config{Seed: seed},
			SpanStart: sp[0], SpanCount: sp[1] - sp[0],
			Sinks: []survey.Sink{as},
		}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "survey.atlas")
	if err := as.Atlas.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// indexBoth indexes the snapshot at path with FromService and with the
// map-based oracle, and returns both with the snapshot's pair section.
func indexBoth(t *testing.T, path string) (got, want *prior.Index, pairs []traceio.AtlasPair) {
	t.Helper()
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if pairs, err = svc.Pairs(); err != nil {
		t.Fatal(err)
	}
	if got, err = prior.FromService(svc); err != nil {
		t.Fatal(err)
	}
	if want, err = prior.OracleFromService(svc); err != nil {
		t.Fatal(err)
	}
	return got, want, pairs
}

// sameIndex fails unless got and want agree on the fingerprint, on every
// pair's hop sets, and on HasEdge for every (u, w) of adjacent hops.
func sameIndex(t *testing.T, got, want *prior.Index, pairs []traceio.AtlasPair) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("indexed %d pairs, oracle %d", got.Len(), want.Len())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint %x, oracle %x", got.Fingerprint(), want.Fingerprint())
	}
	for _, ap := range pairs {
		src, dst := packet.MustParseAddr(ap.Src), packet.MustParseAddr(ap.Dst)
		g, w := got.Lookup(src, dst), want.Lookup(src, dst)
		if (g == nil) != (w == nil) {
			t.Fatalf("pair %d: indexed %t, oracle %t", ap.Pair, g != nil, w != nil)
		}
		if g == nil {
			continue
		}
		if g.NumHops() != w.NumHops() {
			t.Fatalf("pair %d: %d hops, oracle %d", ap.Pair, g.NumHops(), w.NumHops())
		}
		for h := 0; h < w.NumHops(); h++ {
			ga, gok := g.HopAddrs(h)
			wa, wok := w.HopAddrs(h)
			if gok != wok || !slices.Equal(ga, wa) {
				t.Fatalf("pair %d hop %d: %v (%t), oracle %v (%t)", ap.Pair, h, ga, gok, wa, wok)
			}
			next, _ := w.HopAddrs(h + 1)
			for _, u := range wa {
				for _, v := range next {
					if g.HasEdge(u, v) != w.HasEdge(u, v) {
						t.Fatalf("pair %d: HasEdge(%s, %s) = %t, oracle %t", ap.Pair, u, v, g.HasEdge(u, v), w.HasEdge(u, v))
					}
				}
			}
		}
	}
}

// TestFromServiceMatchesOracle: the dense index equals the map-based
// oracle on survey atlases of two worlds, on a span snapshot whose pair
// indices have gaps, and on hand-built hostile snapshots.
func TestFromServiceMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		name string
		path func(*testing.T) string
	}{
		{"seed1", func(t *testing.T) string { return surveyAtlas(t, 1, 300) }},
		{"seed7", func(t *testing.T) string { return surveyAtlas(t, 7, 300) }},
		{"span-gaps", func(t *testing.T) string {
			return surveyAtlas(t, 3, 200, [2]int{0, 40}, [2]int{90, 130}, [2]int{170, 200})
		}},
		{"hostile", hostileAtlas},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want, pairs := indexBoth(t, c.path(t))
			if got.Len() == 0 {
				t.Fatal("empty index: the comparison would be vacuous")
			}
			sameIndex(t, got, want, pairs)
		})
	}
}

// writeAtlas writes a snapshot from hand-built shard blocks through the
// stream encoder, which accepts what the reader accepts: successor lists
// in any order, repeated provenance entries, and provenance naming pairs
// the pair section lacks.
func writeAtlas(t *testing.T, pairs []traceio.AtlasPair, shards ...[]traceio.AtlasNodeV2) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hand.atlas")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec := traceio.AtlasStreamSpec{Pairs: pairs, Shards: len(shards)}
	for _, nodes := range shards {
		spec.Nodes += len(nodes)
		for _, n := range nodes {
			spec.Edges += len(n.Succ)
		}
	}
	enc, err := traceio.NewAtlasStreamEncoder(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, nodes := range shards {
		sh := &traceio.AtlasShard{
			Header: traceio.AtlasShardHeader{Shard: i, Nodes: len(nodes), Min: nodes[0].Addr, Max: nodes[len(nodes)-1].Addr},
			Nodes:  nodes,
		}
		if err := enc.WriteBlock(sh); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

func a4(c, d byte) packet.Addr { return packet.AddrFrom4(10, 0, c, d) }

// hostileAtlas is a two-shard snapshot the reader accepts but no survey
// writes: a successor list out of order and one with a repeat, a Seen
// that repeats a (pair, hop) and one out of order, observations of pair
// 1, which the pair section lacks, an address at two hops of one pair,
// and a pair whose hops have a gap.
func hostileAtlas(t *testing.T) string {
	pairs := []traceio.AtlasPair{
		{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.9"},
		{Pair: 2, Src: "192.0.2.2", Dst: "203.0.113.8"},
	}
	shard0 := []traceio.AtlasNodeV2{
		{Addr: a4(0, 1), Seen: [][2]int{{0, 0}, {2, 0}, {0, 0}}, Succ: []packet.Addr{a4(0, 3), a4(0, 2), a4(9, 9)}},
		{Addr: a4(0, 2), Seen: [][2]int{{1, 1}, {0, 1}}, Succ: []packet.Addr{a4(0, 4), a4(0, 4)}},
		{Addr: a4(0, 3), Seen: [][2]int{{2, 1}, {0, 1}, {2, 1}}, Succ: []packet.Addr{a4(0, 4), a4(1, 5)}},
	}
	shard1 := []traceio.AtlasNodeV2{
		{Addr: a4(0, 4), Seen: [][2]int{{0, 2}, {2, 2}, {1, 2}}, Succ: []packet.Addr{a4(1, 5), a4(0, 3)}},
		{Addr: a4(1, 5), Seen: [][2]int{{0, 3}, {2, 3}, {0, 6}, {2, 1}}, Succ: []packet.Addr{a4(1, 6)}},
		{Addr: a4(1, 6), Seen: [][2]int{{0, 7}, {0, 7}}},
	}
	return writeAtlas(t, pairs, shard0, shard1)
}

// TestFromServiceRefusesNonCanonicalPairAddress: a pair line spelled
// with a leading zero is refused, with the pair named, where the lenient
// parser would have read it as another address.
func TestFromServiceRefusesNonCanonicalPairAddress(t *testing.T) {
	for _, c := range []struct{ src, dst, bad string }{
		{"010.0.0.1", "203.0.113.9", "010.0.0.1"},
		{"192.0.2.1", "203.0.113.09", "203.0.113.09"},
	} {
		pairs := []traceio.AtlasPair{
			{Pair: 0, Src: "192.0.2.7", Dst: "203.0.113.7"},
			{Pair: 4, Src: c.src, Dst: c.dst},
		}
		path := writeAtlas(t, pairs, []traceio.AtlasNodeV2{{Addr: a4(0, 1), Seen: [][2]int{{4, 0}}}})
		svc, err := serve.Open(path, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := prior.FromService(svc)
		svc.Close()
		if err == nil {
			t.Fatalf("%s -> %s indexed (%d pairs), want an error", c.src, c.dst, ix.Len())
		}
		if msg := err.Error(); !strings.Contains(msg, "pair 4") || !strings.Contains(msg, c.bad) {
			t.Fatalf("error %q names neither pair 4 nor %q", msg, c.bad)
		}
	}
}

// TestFromServiceRefusesHopPastTTL: a provenance entry naming a hop no
// one-byte TTL reaches is refused, with the node and pair named, where
// the index would otherwise size its tables by it (on amd64, hop 2^62
// panicked in makeslice, and the map-based build appends to the hop
// list until memory runs out). The widest hop an atlas holds is
// math.MaxInt32 on every GOARCH: its writer and reader refuse a wider
// one. The last reachable hop is indexed.
func TestFromServiceRefusesHopPastTTL(t *testing.T) {
	pairs := []traceio.AtlasPair{{Pair: 3, Src: "192.0.2.1", Dst: "203.0.113.9"}}
	for _, c := range []struct {
		hop  int
		want string
	}{
		{254, ""},
		{255, "node 10.0.0.1: hop 255 of pair 3 is past the last TTL"},
		{math.MaxInt32, fmt.Sprintf("node 10.0.0.1: hop %d of pair 3", math.MaxInt32)},
	} {
		path := writeAtlas(t, pairs, []traceio.AtlasNodeV2{{Addr: a4(0, 1), Seen: [][2]int{{3, c.hop}}}})
		svc, err := serve.Open(path, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := prior.FromService(svc)
		svc.Close()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("hop %d: %v", c.hop, err)
		case c.want == "" && ix.Lookup(packet.MustParseAddr("192.0.2.1"), packet.MustParseAddr("203.0.113.9")).Width(c.hop) != 1:
			t.Errorf("hop %d not indexed", c.hop)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("hop %d: err %v, want one containing %q", c.hop, err, c.want)
		}
	}
}

// BenchmarkFromService indexes the atlas of a 2 000-pair MDA survey of
// world seed 1: the ip-resurvey-prior workload's first-pass atlas.
func BenchmarkFromService(b *testing.B) {
	path := surveyAtlas(b, 1, 2000)
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prior.FromService(svc); err != nil {
			b.Fatal(err)
		}
	}
}
