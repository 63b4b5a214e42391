package serve

import (
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// surveySnapshot is a survey-shaped snapshot of shards full blocks:
// one to three observations and one to four successors a node, and a
// four-interface router for every sixteenth run of nodes, with
// addresses and provenance spanning one- to three-digit octets and
// multi-digit pair indices.
func surveySnapshot(shards int) *fixture {
	n := shards * traceio.DefaultAtlasShardNodes
	addr := func(i int) packet.Addr {
		return packet.AddrFrom4(10, byte(i>>12), byte(i>>4), byte(i<<4|i*37%16))
	}
	f := &fixture{Pairs: []traceio.AtlasPair{{Pair: 0, Src: "192.0.2.1", Dst: "203.0.113.1"}}}
	for i := 0; i < n; i++ {
		nd := traceio.AtlasNodeV2{Addr: addr(i)}
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
		f.Routers = append(f.Routers, traceio.AtlasRouter{Addrs: []packet.Addr{addr(k), addr(k + 1), addr(k + 2), addr(k + 3)}})
	}
	return f
}

// BenchmarkServePointQuery measures Provenance and Router on a
// four-shard survey-shaped snapshot: a cold sweep, one query into each
// shard of a freshly opened service, so every query is a shard's first
// touch and builds its line index (ns/query; the open is not timed);
// and warm queries, every shard indexed, serially and under
// b.RunParallel (ns/op). Run with -benchmem for allocs/op.
func BenchmarkServePointQuery(b *testing.B) {
	const shards = 4
	snap := surveySnapshot(shards)
	path := writeSnapshot(b, b.TempDir(), "survey.atlas", snap, traceio.DefaultAtlasShardNodes)
	// One queried address a shard, each a router member, so Router
	// reads a router line as well as the node line.
	var sweep []packet.Addr
	for i := 0; i < shards; i++ {
		sweep = append(sweep, snap.Nodes[i*traceio.DefaultAtlasShardNodes+17].Addr)
	}
	for _, q := range []struct {
		name  string
		query func(*Service, packet.Addr) error
	}{
		{"Provenance", func(s *Service, a packet.Addr) error { _, err := s.Provenance(a); return err }},
		{"Router", func(s *Service, a packet.Addr) error { _, err := s.Router(a); return err }},
	} {
		b.Run(q.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc, err := Open(path, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, a := range sweep {
					if err := q.query(svc, a); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if m := svc.Metrics(); m.ShardDecodes != shards {
					b.Fatalf("cold sweep decoded %d shards, want %d", m.ShardDecodes, shards)
				}
				svc.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards), "ns/query")
		})
		svc, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range sweep {
			if err := q.query(svc, a); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(q.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := q.query(svc, snap.Nodes[i*7919%len(snap.Nodes)].Addr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/warm-parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if err := q.query(svc, snap.Nodes[i*7919%len(snap.Nodes)].Addr); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		svc.Close()
	}
}
