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
	"cmp"
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

	order, m := a.writePlan()
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
		blk := a.buildBlock(m, order, p)
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

// writePlan sorts the node table's indices by address once, giving the
// canonical node order, and builds the plan, under the snapshot gate
// (held by the caller). Both ways in, AddGraph and AddRecord, give
// successors only to responsive vertices that observe has made nodes,
// so the edge total is the sum of the successor sets.
func (a *Atlas) writePlan() ([]int32, *plan) {
	order := make([]int32, len(a.nodes))
	edges := 0
	for i := range a.nodes {
		order[i] = int32(i)
		edges += len(a.nodes[i].succ)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(a.nodes[x].addr, a.nodes[y].addr) })
	var mins []packet.Addr
	for lo := 0; lo < len(order); lo += traceio.DefaultAtlasShardNodes {
		mins = append(mins, a.nodes[order[lo]].addr)
	}
	return order, newPlan(a, len(order), edges, mins)
}

// buildBlock merges one partition: for each node in the fence range,
// canonicalize provenance in place (the partitions are disjoint, so
// workers never touch the same node). Called with the snapshot gate
// held.
func (a *Atlas) buildBlock(m *plan, order []int32, p int) *traceio.AtlasShard {
	blk := m.startBlock(p)
	lo, hi := traceio.AtlasBlockOf(p, len(order))
	for _, i := range order[lo:hi] {
		st := &a.nodes[i]
		if st.dirty {
			st.seen = sortedObs(st.seen)
			st.dirty = false
		}
		// succ is kept sorted, and the block is encoded before the gate
		// opens, so the encoder reads it in place.
		n := traceio.AtlasNodeV2{Addr: st.addr, Router: m.routerOf[st.addr], Succ: st.succ}
		if len(st.seen) > 0 {
			n.Seen = make([][2]int, len(st.seen))
			for j, o := range st.seen {
				n.Seen[j] = [2]int{o.Pair, o.Hop}
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
