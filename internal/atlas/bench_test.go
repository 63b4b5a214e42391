package atlas

import (
	"io"
	"testing"

	"mmlpt/internal/topo"
)

func benchGraphs(n int) []*topo.Graph {
	gs := make([]*topo.Graph, n)
	for i := 0; i < n; i++ {
		// Paths share a trunk (addresses 1..8) and diverge per pair,
		// approximating the survey's shared-core address reuse.
		addrs := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
		for h := 0; h < 8; h++ {
			addrs = append(addrs, uint32(1000+i*8+h))
		}
		gs[i] = chain(addrs...)
	}
	return gs
}

// BenchmarkAtlasIngest measures serial merge throughput plus one
// streamed snapshot write.
func BenchmarkAtlasIngest(b *testing.B) {
	gs := benchGraphs(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := New(Options{})
		for p, g := range gs {
			a.AddGraph(p, g)
		}
		if n, err := a.WriteTo(io.Discard); err != nil || n == 0 {
			b.Fatalf("snapshot: %d bytes, %v", n, err)
		}
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "graphs/s")
}
