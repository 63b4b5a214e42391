package atlas

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"testing"
	"time"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// scaleAtlas builds a generator atlas with at least `addrs` distinct
// addresses: the write path's 1M/10M scale targets. Untimed setup; the
// atlas is deliberately NOT cached across benchmark functions — a
// pinned multi-hundred-MB live heap would pollute every later
// benchmark's peak-heap readings.
func scaleAtlas(tb testing.TB, addrs int) *Atlas {
	tb.Helper()
	a := New(Options{})
	rng := nprand.New(42)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	spec := fakeroute.GenSpec{Diamonds: 3, WidthMin: 2, WidthMax: 4, LenMin: 2, LenMax: 4}
	for pair, allocated := 0, 0; allocated < addrs; pair++ {
		dst := dstAlloc.Next()
		gp := fakeroute.GenerateMultipath(rng.Fork(uint64(pair)), alloc, dst, spec)
		g := gp.Graph
		a.AddGraph(pair, g)
		var set []packet.Addr
		for vi := range g.Vertices {
			v := &g.Vertices[vi]
			if v.Addr == topo.StarAddr {
				continue
			}
			if v.Addr != dst {
				allocated++ // every other responsive vertex took one address from alloc
			}
			if v.Hop == 2 {
				set = append(set, v.Addr)
			}
		}
		if pair%7 == 0 { // sprinkle alias sets without dominating the build
			a.AddAliasSet(set)
		}
	}
	return a
}

// BenchmarkAtlasWriteScale measures the streaming snapshot encode
// (Atlas.WriteTo) at survey scale, serial vs parallel merge workers.
// The 10M-address case is skipped under -short: it is a local/perf-lab
// benchmark, not a CI smoke.
func BenchmarkAtlasWriteScale(b *testing.B) {
	for _, size := range []int{1_000_000, 10_000_000} {
		if size > 1_000_000 && testing.Short() {
			continue
		}
		a := scaleAtlas(b, size)
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("addrs=%dM/workers=%d", size/1_000_000, workers)
			b.Run(name, func(b *testing.B) {
				a.mergeWorkers = workers
				b.ReportAllocs()
				var written int64
				var peak uint64
				for i := 0; i < b.N; i++ {
					stop := sampleHeapPeak(&peak)
					n, err := a.WriteTo(io.Discard)
					stop()
					if err != nil {
						b.Fatal(err)
					}
					written = n
				}
				b.ReportMetric(float64(written)/float64(size), "bytes/addr")
				b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
			})
		}
	}
}

// BenchmarkCompactStreaming measures the streaming k-way Compact over
// three overlapping 2500-pair delta files: allocation volume and peak
// heap stay bounded by a few shard blocks per input.
func BenchmarkCompactStreaming(b *testing.B) {
	dir := b.TempDir()
	var deltas []string
	for i, seed := range []uint64{100, 101, 102} {
		a := genAtlas(b, seed, 2500, Options{})
		p := filepath.Join(dir, fmt.Sprintf("delta%d.atlas", i))
		if err := a.Save(p); err != nil {
			b.Fatal(err)
		}
		deltas = append(deltas, p)
	}
	out := filepath.Join(dir, "out.atlas")

	b.ReportAllocs()
	var peak uint64
	for i := 0; i < b.N; i++ {
		stop := sampleHeapPeak(&peak)
		if err := Compact(out, "", deltas, Options{}); err != nil {
			b.Fatal(err)
		}
		stop()
	}
	reportOutBytes(b, out, peak)
}

func reportOutBytes(b *testing.B, out string, peak uint64) {
	b.Helper()
	fi, err := os.Stat(out)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "out-bytes")
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}

// sampleHeapPeak polls the live heap while the measured section runs
// and folds the maximum into *peak. Coarse (5ms samples), but it is the
// resident-set story — peak concurrent memory — that total-alloc B/op
// cannot tell.
func sampleHeapPeak(peak *uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > *peak {
				*peak = ms.HeapAlloc
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
