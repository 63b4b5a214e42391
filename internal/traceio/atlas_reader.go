package traceio

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"mmlpt/internal/packet"
)

// AtlasReader is the random-access view of a snapshot: it reads the
// trailer, index, header and pairs section at open, and then serves
// point reads — one shard block, or the diamonds section — without ever
// decoding the rest. Open validates what routing a query needs (index
// spans in bounds, fences ascending); ReadShard validates the block it
// decodes; Verify checks the whole file, including the cross-shard
// invariants no point read can see. All methods are safe for concurrent
// use after open (section reads go through ReadAt).
type AtlasReader struct {
	ra     io.ReaderAt
	closer io.Closer // the file behind ra when OpenAtlasFile opened it
	size   int64

	header  AtlasHeader
	headLen int64 // byte length of the header line
	trailer atlasTrailer
	index   AtlasIndex
	mins    []packet.Addr // per-shard min fence
	pairs   []AtlasPair

	scratch scratchPool // point reads' line buffers and decoders
}

// atlasTailProbe bounds the read that locates the trailer line.
const atlasTailProbe = 4096

// OpenAtlasFile opens a snapshot file for random access.
func OpenAtlasFile(path string) (*AtlasReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewAtlasReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewAtlasReader opens a snapshot held in any random-access byte source
// of the given size. Corrupt, truncated or hostile input returns an
// error; it never panics and never allocates proportionally to
// unverified header claims.
func NewAtlasReader(ra io.ReaderAt, size int64) (*AtlasReader, error) {
	r := &AtlasReader{ra: ra, size: size}
	headLine, err := r.readLineAt(0)
	if err != nil {
		return nil, fmt.Errorf("traceio: atlas header: %v", err)
	}
	r.headLen = int64(len(headLine))
	if r.header, err = decodeAtlasHeader(newLineScanner(string(headLine))); err != nil {
		return nil, err
	}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

// open locates and validates the trailer, index and pairs section.
func (r *AtlasReader) open() error {
	probe := int64(atlasTailProbe)
	if probe > r.size {
		probe = r.size
	}
	tail := make([]byte, probe)
	if _, err := r.ra.ReadAt(tail, r.size-probe); err != nil {
		return fmt.Errorf("traceio: atlas trailer: %v", err)
	}
	tail = bytes.TrimRight(tail, "\n")
	nl := bytes.LastIndexByte(tail, '\n')
	line := tail[nl+1:] // nl == -1 means the probe is one line
	t := &r.trailer
	if err := json.Unmarshal(line, t); err != nil {
		return fmt.Errorf("traceio: bad atlas trailer: %v", err)
	}
	if t.Kind != atlasTrailerKind || t.Version != AtlasVersion {
		return fmt.Errorf("traceio: bad atlas trailer (kind %q version %d)", t.Kind, t.Version)
	}
	if t.IndexOff <= 0 || t.IndexLen <= 0 || t.IndexLen > maxAtlasLine || !r.inBounds(t.IndexOff, t.IndexLen) {
		return fmt.Errorf("traceio: atlas trailer index span [%d,+%d) out of bounds", t.IndexOff, t.IndexLen)
	}
	ib := make([]byte, t.IndexLen)
	if _, err := r.ra.ReadAt(ib, t.IndexOff); err != nil {
		return fmt.Errorf("traceio: atlas index: %v", err)
	}
	if err := json.Unmarshal(bytes.TrimRight(ib, "\n"), &r.index); err != nil {
		return fmt.Errorf("traceio: bad atlas index: %v", err)
	}
	if r.index.Kind != atlasIndexKind {
		return fmt.Errorf("traceio: atlas index kind %q", r.index.Kind)
	}
	if len(r.index.Shards) != r.header.Shards || len(r.index.Shards) == 0 {
		return fmt.Errorf("traceio: atlas index lists %d shards, header claims %d", len(r.index.Shards), r.header.Shards)
	}
	r.mins = make([]packet.Addr, len(r.index.Shards))
	prevEnd := int64(0)
	var prevMax packet.Addr // 0.0.0.0 is never a fence
	for i, si := range r.index.Shards {
		if si.Nodes < 0 || si.Routers < 0 {
			return fmt.Errorf("traceio: atlas index shard %d: negative counts", i)
		}
		if si.Off < prevEnd || si.Len <= 0 || !r.inBounds(si.Off, si.Len) {
			return fmt.Errorf("traceio: atlas index shard %d: span [%d,+%d) out of bounds", i, si.Off, si.Len)
		}
		prevEnd = si.Off + si.Len
		if si.Nodes == 0 {
			continue
		}
		if si.Min <= prevMax || si.Max < si.Min {
			return fmt.Errorf("traceio: atlas index shard %d fences out of order", i)
		}
		r.mins[i] = si.Min
		prevMax = si.Max
	}
	if !r.inBounds(r.index.PairsOff, r.index.PairsLen) {
		return fmt.Errorf("traceio: atlas index pairs span out of bounds")
	}
	if !r.inBounds(r.index.DiamondsOff, r.index.DiamondsLen) {
		return fmt.Errorf("traceio: atlas index diamonds span out of bounds")
	}
	pb, err := r.readSpan(r.index.PairsOff, r.index.PairsLen)
	if err != nil {
		return fmt.Errorf("traceio: atlas pairs: %v", err)
	}
	pls := newLineScanner(pb)
	pairs, err := decodePairs(pls, r.header.Pairs)
	if err != nil {
		return err
	}
	if err := pls.finish(); err != nil {
		return fmt.Errorf("traceio: atlas pairs section: %v", err)
	}
	r.pairs = pairs
	return nil
}

// inBounds reports whether [off, off+n) lies inside the file, without
// the sum overflowing on hostile offsets.
func (r *AtlasReader) inBounds(off, n int64) bool {
	return off >= 0 && n >= 0 && off <= r.size && n <= r.size-off
}

// readSpan returns the n bytes at off as a string that holds them
// once: they pass through a small reusable chunk into a builder sized
// for them up front, and the builder's buffer is the string, where
// reading into a []byte and converting would allocate and copy the
// span twice.
func (r *AtlasReader) readSpan(off, n int64) (string, error) {
	var sb strings.Builder
	sb.Grow(int(n))
	chunk := make([]byte, min(n, spanChunk))
	for n > 0 {
		c := chunk[:min(n, int64(len(chunk)))]
		if _, err := r.ra.ReadAt(c, off); err != nil {
			return "", err
		}
		sb.Write(c)
		off += int64(len(c))
		n -= int64(len(c))
	}
	return sb.String(), nil
}

// spanChunk bounds readSpan's staging buffer.
const spanChunk = 64 << 10

// readLineAt returns the '\n'-terminated line starting at off, growing
// the probe until a newline appears (bounded by maxAtlasLine).
func (r *AtlasReader) readLineAt(off int64) ([]byte, error) {
	for probe := int64(atlasTailProbe); ; probe *= 2 {
		if probe > maxAtlasLine {
			return nil, fmt.Errorf("line at %d exceeds %d bytes", off, maxAtlasLine)
		}
		if off+probe > r.size {
			probe = r.size - off
		}
		buf := make([]byte, probe)
		if _, err := r.ra.ReadAt(buf, off); err != nil {
			return nil, err
		}
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			return buf[:i+1], nil
		}
		if off+probe == r.size {
			return nil, fmt.Errorf("unterminated line at %d", off)
		}
	}
}

// Header returns the snapshot header (section totals, version).
func (r *AtlasReader) Header() AtlasHeader { return r.header }

// Pairs returns the pair section, decoded at open time (it is small
// and every provenance answer needs it).
func (r *AtlasReader) Pairs() []AtlasPair { return r.pairs }

// NumShards returns the number of independently decodable shards.
func (r *AtlasReader) NumShards() int { return len(r.index.Shards) }

// ShardFor returns the shard whose address range owns addr. Every
// address maps to some shard; whether the shard actually holds a node
// for it is answered by the shard's decode or its line index.
func (r *AtlasReader) ShardFor(addr packet.Addr) int {
	return AtlasShardForAddr(r.mins, addr)
}

// ReadShard decodes shard i from its byte span. Safe for concurrent
// callers.
func (r *AtlasReader) ReadShard(i int) (*AtlasShard, error) {
	sh, _, err := r.readShard(i, false)
	return sh, err
}

// readShard decodes and validates shard i and, when index is set, also
// returns the block's line index: each node line's address and each
// router line's representative, with the line's offset in the block.
// ReadShard and IndexShard share this one validating loop.
func (r *AtlasReader) readShard(i int, index bool) (*AtlasShard, *AtlasShardIndex, error) {
	if i < 0 || i >= len(r.index.Shards) {
		return nil, nil, fmt.Errorf("traceio: atlas shard %d out of range (%d shards)", i, len(r.index.Shards))
	}
	si := r.index.Shards[i]
	if index && si.Len > math.MaxUint32 {
		return nil, nil, fmt.Errorf("traceio: atlas shard %d: block of %d bytes is too long to index", i, si.Len)
	}
	buf, err := r.readSpan(si.Off, si.Len)
	if err != nil {
		return nil, nil, fmt.Errorf("traceio: atlas shard %d: %v", i, err)
	}
	ls := newLineScanner(buf)
	sh, err := decodeShardHeader(ls, i)
	if err != nil {
		return nil, nil, err
	}
	if sh.Nodes != si.Nodes || sh.Routers != si.Routers {
		return nil, nil, fmt.Errorf("traceio: atlas shard %d: block counts (%d,%d) disagree with index (%d,%d)",
			i, sh.Nodes, sh.Routers, si.Nodes, si.Routers)
	}
	out := &AtlasShard{
		Header:  sh,
		Nodes:   make([]AtlasNodeV2, 0, cappedPrealloc(sh.Nodes)),
		Routers: make([]AtlasRouter, 0, cappedPrealloc(sh.Routers)),
	}
	var ix *AtlasShardIndex
	if index {
		ix = &AtlasShardIndex{
			r: r, shard: i, off: si.Off, end: uint32(si.Len),
			nodes:   make([]lineRef, 0, cappedPrealloc(sh.Nodes)),
			routers: make([]lineRef, 0, cappedPrealloc(sh.Routers)),
		}
	}
	d := newLineDecoder(sh.Nodes)
	var prev packet.Addr
	for j := 0; j < sh.Nodes; j++ {
		out.Nodes = append(out.Nodes, AtlasNodeV2{})
		n := &out.Nodes[j]
		if err := d.decodeNode(ls, n, prev); err != nil {
			return nil, nil, err
		}
		if n.Addr < si.Min || n.Addr > si.Max {
			return nil, nil, fmt.Errorf("traceio: atlas shard %d: node %s outside fences", i, n.Addr)
		}
		if ix != nil {
			ix.nodes = append(ix.nodes, lineRef{n.Addr, uint32(ls.last)})
		}
		prev = n.Addr
	}
	prev = 0
	for j := 0; j < sh.Routers; j++ {
		out.Routers = append(out.Routers, AtlasRouter{})
		rt := &out.Routers[j]
		if err := d.decodeRouter(ls, rt, prev); err != nil {
			return nil, nil, err
		}
		if ix != nil {
			ix.routers = append(ix.routers, lineRef{rt.Addrs[0], uint32(ls.last)})
		}
		prev = rt.Addrs[0]
	}
	if err := ls.finish(); err != nil {
		return nil, nil, fmt.Errorf("traceio: atlas shard %d: %v", i, err)
	}
	return out, ix, nil
}

// ReadDiamonds decodes the diamond census section. Safe for concurrent
// callers.
func (r *AtlasReader) ReadDiamonds() ([]AtlasDiamond, error) {
	buf, err := r.readSpan(r.index.DiamondsOff, r.index.DiamondsLen)
	if err != nil {
		return nil, fmt.Errorf("traceio: atlas diamonds: %v", err)
	}
	ls := newLineScanner(buf)
	ds, err := decodeDiamonds(ls, r.header.Diamonds)
	if err != nil {
		return nil, err
	}
	if err := ls.finish(); err != nil {
		return nil, fmt.Errorf("traceio: atlas diamonds section: %v", err)
	}
	return ds, nil
}

// Verify decodes every section and checks the invariants that span
// them, which open and the per-shard reads cannot see: the header's
// shard count is plausible for its node count, the sections tile the
// file with nothing between them, every block's fences equal both the
// index's and its first and last node, the blocks hold exactly the
// header's node, router and edge totals, the diamonds section holds the
// header's count, every successor names an address the file has a
// node for, and the routers are what a router query needs: members
// strictly ascending (so the first is the representative), each line
// in the shard AtlasShardForAddr gives for its representative, and
// node "router" fields and router lines agreeing both ways; and the
// census is what Atlas.Census writes: entries strictly ascending by
// (div, conv), each entry's pairs strictly ascending, and at least one
// pair and no more pairs than encounters. (Every address was written
// as its canonical text: the decoder refuses any other. Pair indices
// ascend strictly, as Atlas writes them: open refuses the file
// otherwise. That addresses ascend across shard boundaries needs no
// check of its own: open orders the index's fences and ReadShard keeps
// every node inside them.) A file that verifies re-streams through
// AtlasStreamEncoder without error. Each failure names its check.
// Memory is one decoded shard plus 4 bytes per node, 8 per edge and 8
// per router member or router-naming node.
func (r *AtlasReader) Verify() error {
	fail := func(check, format string, args ...any) error {
		return fmt.Errorf("traceio: atlas verify: %s: %s", check, fmt.Sprintf(format, args...))
	}
	h := r.header
	if (h.Nodes == 0 && h.Shards != 1) || (h.Nodes > 0 && h.Shards > h.Nodes) {
		return fail("shard count", "%d shards for %d nodes", h.Shards, h.Nodes)
	}

	// Layout: header, pairs, shard blocks, diamonds, index, trailer —
	// contiguous, in that order, ending the file.
	end := r.headLen
	section := func(off, n int64, name string, args ...any) error {
		if off != end {
			return fail("layout", "%s starts at %d, previous section ends at %d", fmt.Sprintf(name, args...), off, end)
		}
		end += n
		return nil
	}
	if err := section(r.index.PairsOff, r.index.PairsLen, "pairs section"); err != nil {
		return err
	}
	for i, si := range r.index.Shards {
		if err := section(si.Off, si.Len, "shard %d", i); err != nil {
			return err
		}
	}
	if err := section(r.index.DiamondsOff, r.index.DiamondsLen, "diamonds section"); err != nil {
		return err
	}
	if err := section(r.trailer.IndexOff, r.trailer.IndexLen, "index"); err != nil {
		return err
	}
	tl, err := r.readLineAt(end)
	if err != nil {
		return fail("layout", "trailer at %d: %v", end, err)
	}
	if end+int64(len(tl)) != r.size {
		return fail("layout", "%d bytes after the trailer", r.size-end-int64(len(tl)))
	}

	// A link is an edge (from → to), or a router membership (node or
	// member → representative).
	type link struct{ from, to packet.Addr }
	var (
		addrs   []packet.Addr
		links   []link
		claims  []link // node → the representative its "router" names
		members []link // router member → the line's first address
		routers int
	)
	for i, si := range r.index.Shards {
		sh, err := r.ReadShard(i)
		if err != nil {
			return fail(fmt.Sprintf("shard %d", i), "%v", err)
		}
		if sh.Header.Min != si.Min || sh.Header.Max != si.Max {
			return fail("fences", "shard %d block fences [%s,%s] disagree with index [%s,%s]",
				i, sh.Header.Min, sh.Header.Max, si.Min, si.Max)
		}
		if n := len(sh.Nodes); n > 0 && (sh.Header.Min != sh.Nodes[0].Addr || sh.Header.Max != sh.Nodes[n-1].Addr) {
			return fail("fences", "shard %d fences [%s,%s] are not its first and last node [%s,%s]",
				i, sh.Header.Min, sh.Header.Max, sh.Nodes[0].Addr, sh.Nodes[n-1].Addr)
		}
		for j := range sh.Nodes {
			n := &sh.Nodes[j]
			addrs = append(addrs, n.Addr)
			for _, to := range n.Succ {
				links = append(links, link{n.Addr, to})
			}
			if n.Router != 0 {
				claims = append(claims, link{n.Addr, n.Router})
			}
		}
		for _, rt := range sh.Routers {
			rep := rt.Addrs[0]
			if home := r.ShardFor(rep); home != i {
				return fail("router placement", "router %s is in shard %d, its representative's shard is %d", rep, i, home)
			}
			prev := rep
			members = append(members, link{rep, rep})
			for _, a := range rt.Addrs[1:] {
				if a <= prev {
					return fail("router order", "router %s lists %s after %s", rep, a, prev)
				}
				prev = a
				members = append(members, link{a, rep})
			}
		}
		routers += len(sh.Routers)
	}
	if len(addrs) != h.Nodes {
		return fail("node total", "shards hold %d nodes, header claims %d", len(addrs), h.Nodes)
	}
	if routers != h.Routers {
		return fail("router total", "shards hold %d routers, header claims %d", routers, h.Routers)
	}
	if len(links) != h.Edges {
		return fail("edge total", "nodes hold %d edges, header claims %d", len(links), h.Edges)
	}
	for _, l := range links {
		if _, ok := slices.BinarySearch(addrs, l.to); !ok {
			return fail("successors", "node %s links to %s, which has no node", l.from, l.to)
		}
	}
	// Router fields and router lines agree both ways: a node names the
	// line that lists it, and a line's member that is a node names that
	// line. Claims ascend with the nodes; members need a sort.
	byLink := func(a, b link) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	}
	slices.SortFunc(members, byLink)
	for _, c := range claims {
		if _, ok := slices.BinarySearchFunc(members, c, byLink); !ok {
			return fail("router links", "node %s names router %s, which does not list it", c.from, c.to)
		}
	}
	for _, m := range members {
		if _, ok := slices.BinarySearch(addrs, m.from); !ok {
			continue // a member no trace reached is not a node
		}
		if j, ok := slices.BinarySearchFunc(claims, m.from, func(c link, a packet.Addr) int { return cmp.Compare(c.from, a) }); !ok || claims[j].to != m.to {
			return fail("router links", "router %s lists node %s, which does not name it", m.to, m.from)
		}
	}
	ds, err := r.ReadDiamonds()
	if err != nil {
		return fail("diamonds", "%v", err)
	}
	for i, d := range ds {
		if i > 0 && (ds[i-1].Div > d.Div || ds[i-1].Div == d.Div && ds[i-1].Conv >= d.Conv) {
			return fail("census", "diamond (%s, %s) after (%s, %s)", d.Div, d.Conv, ds[i-1].Div, ds[i-1].Conv)
		}
		if len(d.Pairs) == 0 || d.Count < len(d.Pairs) {
			return fail("census", "diamond (%s, %s) counts %d encounters by %d pairs", d.Div, d.Conv, d.Count, len(d.Pairs))
		}
		for j := 1; j < len(d.Pairs); j++ {
			if d.Pairs[j] <= d.Pairs[j-1] {
				return fail("census", "diamond (%s, %s) lists pair %d after %d", d.Div, d.Conv, d.Pairs[j], d.Pairs[j-1])
			}
		}
	}
	return nil
}

// Close releases the underlying file, if OpenAtlasFile opened one.
func (r *AtlasReader) Close() error {
	if r.closer == nil {
		return nil
	}
	err := r.closer.Close()
	r.closer = nil
	return err
}
