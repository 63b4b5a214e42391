// Shard-parallel streaming snapshot encode: the write-path counterpart
// of the serve layer's indexed reads. WriteTo slices the canonical
// address order into the partitions the snapshot format fences —
// contiguous runs of traceio.DefaultAtlasShardNodes nodes — and has a
// worker pool merge, sort, dedup and JSON-render each partition into a
// private block buffer. The coordinator hands finished blocks to the
// traceio stream encoder in partition order (par.OrderedErr), so the
// file's bytes are a pure function of atlas content: every worker
// count and ingestion order produces identical output, and peak memory
// is a few blocks in flight, never the whole snapshot.
package atlas

import (
	"io"
	"slices"

	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/traceio"
)

// WriteTo streams the atlas's canonical snapshot encoding to w. It
// implements io.WriterTo. The encode holds the snapshot gate:
// concurrent ingestion blocks for its duration, which is what lets the
// plan, the blocks and the lazy in-place provenance sorts observe one
// consistent state without per-node locks.
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
	}
	err = par.OrderedErr(m.parts(), a.mergeWorkers, func(p int) (block, error) {
		blk := a.buildBlock(m, addrs, p)
		raw, edges, err := traceio.AppendAtlasShardBlock(nil, blk)
		return block{raw: raw, hdr: blk.Header, edges: edges}, err
	}, func(p int, b block) error {
		return enc.WriteEncodedBlock(b.raw, b.hdr, b.edges)
	})
	if err != nil {
		return cw.n, err
	}
	if err := enc.Finish(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writePlan collects the full canonical address order and the plan
// under the snapshot gate (held by the caller). Every successor is a
// node (AddGraph), so the edge total is the sum of the successor sets.
func (a *Atlas) writePlan() ([]packet.Addr, *plan) {
	addrs := make([]packet.Addr, 0, len(a.nodes))
	edges := 0
	for addr, st := range a.nodes {
		addrs = append(addrs, addr)
		edges += len(st.succ)
	}
	slices.Sort(addrs)

	var mins []packet.Addr
	for lo := 0; lo < len(addrs); lo += traceio.DefaultAtlasShardNodes {
		mins = append(mins, addrs[lo])
	}
	return addrs, newPlan(a, len(addrs), edges, mins)
}

// buildBlock merges one partition: for each address in the fence range,
// canonicalize provenance in place (the partitions are disjoint, so
// workers never touch the same node) and sort the successor set. Called
// with the snapshot gate held.
func (a *Atlas) buildBlock(m *plan, addrs []packet.Addr, p int) *traceio.AtlasShard {
	blk := m.startBlock(p)
	lo, hi := traceio.AtlasBlockOf(p, len(addrs))
	for _, addr := range addrs[lo:hi] {
		st := a.nodes[addr]
		if st.dirty {
			st.seen = sortedObs(st.seen)
			st.dirty = false
		}
		n := traceio.AtlasNodeV2{Addr: addr, Router: m.routerOf[addr]}
		if len(st.seen) > 0 {
			n.Seen = make([][2]int, len(st.seen))
			for i, o := range st.seen {
				n.Seen[i] = [2]int{o.Pair, o.Hop}
			}
		}
		if len(st.succ) > 0 {
			n.Succ = make([]packet.Addr, 0, len(st.succ))
			for wa := range st.succ {
				n.Succ = append(n.Succ, wa)
			}
			slices.Sort(n.Succ)
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
