// Shard-parallel streaming snapshot encode: the write-path counterpart
// of the serve layer's indexed reads. WriteTo slices the canonical
// address order into the partitions the snapshot format fences —
// contiguous runs of traceio.DefaultAtlasShardNodes nodes — and has a
// worker pool merge, sort, dedup and JSON-render each partition into a
// private block buffer. The coordinator hands finished blocks to the
// traceio stream encoder in partition order (par.Ordered), so the
// file's bytes are a pure function of atlas content: every worker
// count, ingestion-shard count and ingestion order produces identical
// output, and peak memory is a few blocks in flight, never the whole
// snapshot.
package atlas

import (
	"io"
	"slices"

	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/traceio"
)

// WriteTo streams the atlas's canonical snapshot encoding to w. It
// implements io.WriterTo. The encode holds the snapshot gate
// exclusively: concurrent ingestion blocks for its duration, which is
// what lets the counting pass, the emit pass and the lazy in-place
// provenance sorts observe one consistent state without per-node locks.
func (a *Atlas) WriteTo(w io.Writer) (int64, error) {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()

	addrs, m := a.writePlan()
	cw := &countingWriter{w: w}
	enc, err := traceio.NewAtlasStreamEncoder(cw, m.spec())
	if err != nil {
		return cw.n, err
	}

	type block struct {
		raw   []byte
		hdr   traceio.AtlasShardHeader
		edges int
		err   error
	}
	var firstErr error
	par.Ordered(m.parts(), a.mergeWorkers, func(p int) block {
		blk := a.buildBlock(m, addrs, p)
		raw, edges, err := traceio.AppendAtlasShardBlock(nil, blk)
		return block{raw: raw, hdr: blk.Header, edges: edges, err: err}
	}, func(p int, b block) {
		if firstErr != nil {
			return
		}
		if b.err != nil {
			firstErr = b.err
			return
		}
		firstErr = enc.WriteEncodedBlock(b.raw, b.hdr, b.edges)
	})
	if firstErr != nil {
		return cw.n, firstErr
	}
	if err := enc.Finish(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writePlan collects the full canonical address order and the plan
// under the exclusive snapshot gate (held by the caller). Address
// collection reads the ingestion shards without their locks — writers
// are excluded — and the edge total is counted in parallel without
// materializing a single successor list.
func (a *Atlas) writePlan() ([]packet.Addr, *plan) {
	total := 0
	for _, s := range a.shards {
		total += len(s.nodes)
	}
	addrs := make([]packet.Addr, 0, total)
	for _, s := range a.shards {
		for addr := range s.nodes {
			addrs = append(addrs, addr)
		}
	}
	slices.Sort(addrs)

	var mins []packet.Addr
	for lo := 0; lo < len(addrs); lo += traceio.DefaultAtlasShardNodes {
		mins = append(mins, addrs[lo])
	}

	// Count the merged edges per partition — the header needs the exact
	// total before the first block streams out. Successor targets
	// without a node of their own are dropped, as buildBlock drops them.
	counts := make([]int, len(mins))
	par.Do(len(mins), a.mergeWorkers, func(p int) {
		lo, hi := traceio.AtlasBlockOf(p, len(addrs))
		n := 0
		for _, addr := range addrs[lo:hi] {
			st := a.shards[a.shardIndexOf(addr)].nodes[addr]
			for wa := range st.succ {
				if _, ok := slices.BinarySearch(addrs, wa); ok {
					n++
				}
			}
		}
		counts[p] = n
	})
	edges := 0
	for _, n := range counts {
		edges += n
	}
	return addrs, newPlan(a, len(addrs), edges, mins)
}

// buildBlock merges one partition: for each address in the fence range,
// canonicalize provenance in place (the partitions are disjoint, so
// workers never touch the same node), merge and sort the successor set,
// and render everything once via AppendText. Called with the snapshot
// gate held exclusively.
func (a *Atlas) buildBlock(m *plan, addrs []packet.Addr, p int) *traceio.AtlasShard {
	blk := m.startBlock(p)
	lo, hi := traceio.AtlasBlockOf(p, len(addrs))
	var scratch []byte
	var succ []packet.Addr
	for _, addr := range addrs[lo:hi] {
		st := a.shards[a.shardIndexOf(addr)].nodes[addr]
		if st.dirty {
			st.seen = sortedObs(st.seen)
			st.dirty = false
		}
		scratch = addr.AppendText(scratch[:0])
		n := traceio.AtlasNodeV2{Addr: string(scratch), Router: m.routerOf[addr]}
		if len(st.seen) > 0 {
			n.Seen = make([][2]int, len(st.seen))
			for i, o := range st.seen {
				n.Seen[i] = [2]int{o.Pair, o.Hop}
			}
		}
		succ = succ[:0]
		for wa := range st.succ {
			if _, ok := slices.BinarySearch(addrs, wa); ok {
				succ = append(succ, wa)
			}
		}
		if len(succ) > 0 {
			slices.Sort(succ)
			n.Succ = make([]string, len(succ))
			for i, wa := range succ {
				scratch = wa.AppendText(scratch[:0])
				n.Succ[i] = string(scratch)
			}
		}
		blk.Nodes = append(blk.Nodes, n)
	}
	m.finishBlock(blk)
	return blk
}

// countingWriter tracks bytes written for WriteTo's return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
