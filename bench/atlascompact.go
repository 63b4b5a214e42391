package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mmlpt/internal/atlas"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// compactSlices is K: the record stream is cut into this many delta
// snapshots before compaction.
const compactSlices = 8

// runAtlasCompact is the atlas write path with zero probing: ingest
// record slices into fresh atlases, save each as a delta snapshot, then
// atlas.Compact them into one. The records are those of an MDA-Lite ip
// survey (not disjoint synthetic graphs) because paths of one universe
// share trunk hops and diamond templates, so the deltas overlap in
// addresses and the k-way merge has real work to do.
func runAtlasCompact(c *runCtx) error {
	s := surveySpec{level: "ip", pairs: c.pick(3000, 64), worldSeed: 1}
	c.rep.Load = "closed loop, 1 client (slices ingested and compacted back to back)"

	// Set-up: the records, and the reference snapshot a single atlas fed
	// every record saves — what compaction must reproduce byte for byte.
	refPath := filepath.Join(c.scratch, "direct.atlas")
	var setup []float64
	var records []*traceio.SurveyRecord
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		u, rc, err := s.plan(c.seed)
		if err != nil {
			return err
		}
		mem := &survey.MemorySink{}
		rc.Algo, rc.Workers, rc.Sinks = survey.AlgoMDALite, c.procs, []survey.Sink{mem}
		if _, err := survey.Run(u, rc); err != nil {
			return err
		}
		records = mem.Records
		direct := atlas.New(atlas.Options{})
		for _, rec := range records {
			if err := direct.AddRecord(rec); err != nil {
				return err
			}
		}
		if err := direct.Save(refPath); err != nil {
			return err
		}
		setup = append(setup, seconds(time.Since(t0)))
	}
	refSHA, _, err := fileSHA(refPath)
	if err != nil {
		return err
	}
	n := len(records)
	c.rep.Sizes = map[string]int{"records": n, "slices": compactSlices, "world_seed": int(s.worldSeed)}

	type passTimes struct {
		ingest, save, compact, wall time.Duration
		bytes, outBytes             int64 // all outputs; the compacted snapshot alone
		nodes                       int
		allocs                      uint64
		peakHeapMB                  float64
	}
	out := filepath.Join(c.scratch, "compacted.atlas")
	pass := func(tr *tracer) (passTimes, error) {
		var pt passTimes
		var deltas []string
		runtime.GC()
		t0 := time.Now()
		root := tr.begin("pass", -1, -1, t0)
		for k := 0; k < compactSlices; k++ {
			lo, hi := k*n/compactSlices, (k+1)*n/compactSlices
			ti := time.Now()
			a := atlas.New(atlas.Options{})
			for _, rec := range records[lo:hi] {
				if err := a.AddRecord(rec); err != nil {
					return pt, err
				}
			}
			ts := time.Now()
			path := filepath.Join(c.scratch, fmt.Sprintf("delta-%d.atlas", k))
			if err := a.Save(path); err != nil {
				return pt, err
			}
			te := time.Now()
			tr.add("ingest", root, k, ti, ts)
			tr.add("save", root, k, ts, te)
			pt.ingest += ts.Sub(ti)
			pt.save += te.Sub(ts)
			deltas = append(deltas, path)
		}
		var stopPeak func() float64
		if tr != nil {
			stopPeak = sampleHeapPeak()
		}
		m0, _ := mallocs()
		tc := time.Now()
		if err := atlas.Compact(out, "", deltas, atlas.Options{}); err != nil {
			return pt, err
		}
		end := time.Now()
		m1, _ := mallocs()
		if stopPeak != nil {
			pt.peakHeapMB = stopPeak()
		}
		tr.add("compact", root, -1, tc, end)
		tr.finish(root, end)
		pt.compact, pt.wall, pt.allocs = end.Sub(tc), end.Sub(t0), m1-m0

		sha, size, err := fileSHA(out)
		if err != nil {
			return pt, err
		}
		failed := 0
		if sha != refSHA {
			c.failf("compacted snapshot differs from a direct Save of one atlas fed all records")
			failed = n
		}
		c.attempted(n, failed)
		pt.outBytes, pt.bytes = size, size
		for _, d := range deltas {
			fi, err := os.Stat(d)
			if err != nil {
				return pt, err
			}
			pt.bytes += fi.Size()
		}
		h, err := snapshotHeader(out)
		if err != nil {
			return pt, err
		}
		if h.Pairs != n {
			c.failf("compacted snapshot reports %d pairs, want %d", h.Pairs, n)
		}
		pt.nodes = h.Nodes
		return pt, nil
	}

	warm, err := pass(nil) // warm-up and correctness pass
	if err != nil {
		return err
	}

	if c.traced {
		var untraced, traced []float64
		var pt passTimes
		deadline := time.Now().Add(c.seconds / 2)
		for rep := 0; rep < 1 || (rep < 5 && time.Now().Before(deadline)); rep++ {
			p, err := pass(nil)
			if err != nil {
				return err
			}
			untraced = append(untraced, seconds(p.wall))
			c.tr = newTracer()
			if pt, err = pass(c.tr); err != nil {
				return err
			}
			traced = append(traced, seconds(pt.wall))
		}
		openMS, shardMS, hdr, err := snapshotReadCosts(out)
		if err != nil {
			return err
		}
		write := pt.ingest + pt.save
		c.put("atlas.ingest_ns_per_record", ratio(float64(pt.ingest.Nanoseconds()), float64(n)))
		c.put("atlas.ingest_records_per_s", ratio(float64(n), seconds(write)))
		c.put("atlas.save_s", seconds(pt.save))
		c.put("atlas.save_mb_per_s", ratio(float64(pt.bytes-pt.outBytes)/1e6, seconds(pt.save)))
		c.put("atlas.snapshot_bytes_per_addr", ratio(float64(pt.outBytes), float64(hdr.Nodes)))
		c.put("atlas.compact_s", seconds(pt.compact))
		c.put("atlas.compact_nodes_per_s", ratio(float64(pt.nodes), seconds(pt.compact)))
		c.put("atlas.compact_allocs_per_node", ratio(float64(pt.allocs), float64(pt.nodes)))
		c.put("atlas.compact_peak_heap_mb", pt.peakHeapMB)
		c.put("traceio.atlas_open_ms", openMS)
		c.put("traceio.shard_decode_ms", shardMS)
		c.put("trace.overhead_share", ratio(median(traced), median(untraced))-1)
		c.put("trace.coverage_share", 1-ratio(seconds(c.tr.totals()["pass"].Self), seconds(pt.wall)))
		c.put("trace.spans", float64(len(c.tr.spans)))
		return nil
	}

	var ingestRate, compactRate, opsRate []float64
	deadline := time.Now().Add(c.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		c.beginPass()
		pt, err := pass(nil)
		if err != nil {
			return err
		}
		c.endPass()
		ingestRate = append(ingestRate, float64(n)/seconds(pt.ingest+pt.save))
		compactRate = append(compactRate, float64(pt.nodes)/seconds(pt.compact))
		opsRate = append(opsRate, float64(n)/seconds(pt.wall))
	}
	c.put("setup_s", setup...)
	c.put("ops_per_s", opsRate...)
	c.put("out_bytes_per_op", float64(warm.bytes)/float64(n))
	c.put("ingest_records_per_s", ingestRate...)
	c.put("compact_nodes_per_s", compactRate...)
	return nil
}

// sampleHeapPeak polls the in-use heap until the returned stop function
// is called, which reports the highest reading in MB. Polling stops the
// world briefly, so it runs only in traced passes.
func sampleHeapPeak() (stop func() float64) {
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak {
				peak = ms.HeapInuse
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}
