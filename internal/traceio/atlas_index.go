package traceio

import (
	"bytes"
	"fmt"
	"sync"

	"mmlpt/internal/packet"
)

// AtlasShardIndex is the line index of one shard block that decoded and
// validated whole: for each node line its address, for each router line
// its representative, and the line's offset in the block — 8 bytes a
// line. A point read through it is a binary search and one ReadAt of
// the one line it needs, decoded by the line grammar the block decode
// uses and checked against the address the validating decode saw there.
// An address the block has no node for is answered from the index with
// no read. Safe for concurrent use; it reads through its AtlasReader,
// so it is valid while the reader is open.
type AtlasShardIndex struct {
	r       *AtlasReader
	shard   int
	off     int64  // the block's offset in the file
	end     uint32 // the block's length
	nodes   []lineRef
	routers []lineRef
}

// lineRef locates one line of a block: the address it is keyed by and
// the offset of its first byte from the block's start.
type lineRef struct {
	addr packet.Addr
	off  uint32
}

// findLine returns the position of the line keyed by a in refs, which
// ascend by address, and whether it is there.
func findLine(refs []lineRef, a packet.Addr) (int, bool) {
	i, j := 0, len(refs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if refs[h].addr < a {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(refs) && refs[i].addr == a
}

// IndexShard decodes and validates shard i as ReadShard does, in the
// same loop, and returns its line index. A block too long for 32-bit
// offsets is refused before any of it is read. Safe for concurrent
// callers.
func (r *AtlasReader) IndexShard(i int) (*AtlasShardIndex, error) {
	_, ix, err := r.readShard(i, true)
	return ix, err
}

// Node reads the node line of addr and calls fn with its decode,
// reporting false, without a read, when the block has no node for addr.
// The node and its lists are scratch memory, valid only during fn.
func (x *AtlasShardIndex) Node(addr packet.Addr, fn func(*AtlasNodeV2)) (bool, error) {
	j, ok := findLine(x.nodes, addr)
	if !ok {
		return false, nil
	}
	end := x.end
	switch {
	case j+1 < len(x.nodes):
		end = x.nodes[j+1].off
	case len(x.routers) > 0:
		end = x.routers[0].off
	}
	sc := x.r.scratch.get()
	defer x.r.scratch.put(sc)
	line, err := x.readLine(sc, x.nodes[j].off, end)
	if err != nil {
		return false, err
	}
	n := &sc.node
	*n = AtlasNodeV2{}
	if err := nodeLine(&sc.d, line, n); err != nil {
		return false, x.lineErr(x.nodes[j].off, err)
	}
	if n.Addr != addr {
		return false, x.lineErr(x.nodes[j].off, fmt.Errorf("node %s where the block held %s", n.Addr, addr))
	}
	fn(n)
	return true, nil
}

// Router reads the router line whose representative is rep and calls
// fn with its decode, reporting false, without a read, when the block
// has no such line. The router's member list is scratch memory, valid
// only during fn.
func (x *AtlasShardIndex) Router(rep packet.Addr, fn func(*AtlasRouter)) (bool, error) {
	j, ok := findLine(x.routers, rep)
	if !ok {
		return false, nil
	}
	end, prev := x.end, packet.Addr(0)
	if j+1 < len(x.routers) {
		end = x.routers[j+1].off
	}
	if j > 0 {
		prev = x.routers[j-1].addr
	}
	sc := x.r.scratch.get()
	defer x.r.scratch.put(sc)
	line, err := x.readLine(sc, x.routers[j].off, end)
	if err != nil {
		return false, err
	}
	rt := &sc.router
	*rt = AtlasRouter{}
	if err := routerLine(&sc.d, line, rt, prev); err != nil {
		return false, x.lineErr(x.routers[j].off, err)
	}
	if rt.Addrs[0] != rep {
		return false, x.lineErr(x.routers[j].off, fmt.Errorf("router %s where the block held %s", rt.Addrs[0], rep))
	}
	fn(rt)
	return true, nil
}

// readLine reads the line starting at block offset off into sc's
// buffer and returns it as lineScanner would: up to its '\n', a
// trailing '\r' dropped. end is where the next line starts (or the
// block ends), so the read may carry the blank lines the scanner
// skipped; it stops at maxAtlasLine, longer than any line the
// validating decode accepted.
func (x *AtlasShardIndex) readLine(sc *pointScratch, off, end uint32) ([]byte, error) {
	n := int(min(end-off, maxAtlasLine))
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	b := sc.buf[:n]
	if _, err := x.r.ra.ReadAt(b, x.off+int64(off)); err != nil {
		return nil, fmt.Errorf("traceio: atlas shard %d: %v", x.shard, err)
	}
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1]
	}
	return b, nil
}

func (x *AtlasShardIndex) lineErr(off uint32, err error) error {
	return fmt.Errorf("traceio: atlas shard %d: line at block offset %d: %v", x.shard, off, err)
}

// pointScratch is one point read's working memory: the line's bytes,
// the decoder whose slabs hold the decoded lists, and the decoded line.
type pointScratch struct {
	buf    []byte
	d      lineDecoder
	node   AtlasNodeV2
	router AtlasRouter
}

// maxPooledLine bounds the buffer a point read hands back for reuse, so
// one long line, or a run of blank lines after one, does not stay
// resident; maxPooledScratch bounds how many are kept.
const (
	maxPooledLine    = 4 << 10
	maxPooledScratch = 64
)

// scratchPool is a reader's free list of point-read scratch. It is a
// plain locked stack rather than a sync.Pool, which drops entries at
// every GC and at random under the race detector: a hot point query
// allocates only its answer, always.
type scratchPool struct {
	mu   sync.Mutex
	free []*pointScratch
}

func (ps *scratchPool) get() *pointScratch {
	ps.mu.Lock()
	var sc *pointScratch
	if n := len(ps.free); n > 0 {
		sc, ps.free = ps.free[n-1], ps.free[:n-1]
	}
	ps.mu.Unlock()
	if sc == nil {
		return &pointScratch{d: *newLineDecoder(0)}
	}
	sc.d.seen.buf = sc.d.seen.buf[:0]
	sc.d.addrs.buf = sc.d.addrs.buf[:0]
	return sc
}

func (ps *scratchPool) put(sc *pointScratch) {
	if cap(sc.buf) > maxPooledLine {
		return
	}
	ps.mu.Lock()
	if len(ps.free) < maxPooledScratch {
		ps.free = append(ps.free, sc)
	}
	ps.mu.Unlock()
}
