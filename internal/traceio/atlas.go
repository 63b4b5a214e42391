package traceio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/packet"
)

// Atlas snapshot format.
//
// A snapshot persists the cross-trace topology atlas (internal/atlas):
// the address-keyed multilevel graph with per-pair hop provenance, the
// aggregated alias components (routers), and the cross-pair diamond
// census. The file is line-oriented JSON, sectioned and indexed (every
// line one JSON value, '\n'-terminated; pair, node, router and diamond
// lines are read only in the one form their encoders write, see
// atlas_lines.go):
//
//	header    {"version":2,"kind":"atlas","pairs":P,"nodes":N,"edges":E,"routers":R,"diamonds":D,"shards":S}
//	P pair lines    {"pair":i,"src":"A","dst":"B"}
//	S shard blocks, each:
//	    {"shard":i,"nodes":n,"routers":r,"min":"A","max":"B"}
//	    n node lines   {"addr":"A","seen":[[p,h],...],"succ":["B",...],"router":"REP"}
//	    r router lines {"addrs":["A","B",...]}
//	D diamond lines {"div":"A","conv":"B","count":c,"pairs":[...],"max_width":w,"max_length":l}
//	index     {"kind":"atlas-index","pairs_off":o,"pairs_len":l,"shards":[{"off":o,"len":l,"nodes":n,"routers":r,"min":"A","max":"B"},...],"diamonds_off":o,"diamonds_len":l}
//	trailer   {"kind":"atlas-trailer","version":2,"index_off":o,"index_len":l}
//
// Nodes are split into contiguous runs of the canonical (ascending
// address) order, DefaultAtlasShardNodes per run; a shard's fences
// [min, max] are its first and last node address, so fences partition
// the address space into disjoint ascending ranges. Edges live with
// their source node as a "succ" list of destination addresses, and each
// node in a multi-interface router names the component's representative
// (its minimum address) in "router". A router component is stored in
// the shard its representative falls in. The trailer is the last line
// of the file and locates the index; the index locates every shard plus
// the pairs and diamonds sections by absolute byte offset, so a reader
// (AtlasReader) answers a point query from one shard, never the whole
// file: by decoding it, or by reading one line through its line index
// (AtlasShardIndex).
//
// Every section is emitted in canonical order (pairs by index, nodes by
// ascending address, successors ascending, routers by first address,
// diamonds by (div, conv) label) and offsets are pure functions of the
// content, so for a fixed survey the snapshot is byte-identical
// whatever worker or shard count produced it, and re-streaming a file's
// own blocks through AtlasStreamEncoder reproduces the identical bytes.

// AtlasVersion is the snapshot format version.
const AtlasVersion = 2

// atlasKind guards against loading some other tool's JSONL file;
// atlasIndexKind and atlasTrailerKind tag the two locator lines.
const (
	atlasKind        = "atlas"
	atlasIndexKind   = "atlas-index"
	atlasTrailerKind = "atlas-trailer"
)

// maxAtlasLine bounds one snapshot line; a header or record longer than
// this is hostile or corrupt, not big.
const maxAtlasLine = 1 << 24

// preallocCap bounds slice preallocation from header counts, so a
// hostile header claiming 10^12 nodes cannot allocate terabytes before
// the decoder notices the file is short.
const preallocCap = 1 << 16

// DefaultAtlasShardNodes is the node count per shard block. Shard
// layout is a pure function of the canonical node order, never of the
// producing process's worker or ingestion-shard count.
const DefaultAtlasShardNodes = 4096

// AtlasHeader is the snapshot's first line. Shards is the number of
// node/router sections.
type AtlasHeader struct {
	Version  int    `json:"version"`
	Kind     string `json:"kind"`
	Pairs    int    `json:"pairs"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Routers  int    `json:"routers"`
	Diamonds int    `json:"diamonds"`
	Shards   int    `json:"shards,omitempty"`
}

// AtlasPair records one merged trace's identity.
type AtlasPair struct {
	Pair int    `json:"pair"`
	Src  string `json:"src"`
	Dst  string `json:"dst"`
}

// AtlasRouter is one aggregated alias component, addresses sorted.
type AtlasRouter struct {
	Addrs []packet.Addr `json:"addrs"`
}

// AtlasDiamond is one distinct diamond's census entry across all pairs.
type AtlasDiamond struct {
	Div  string `json:"div"`
	Conv string `json:"conv"`
	// Count is the number of encounters; Pairs the distinct pair
	// indices that saw the diamond, sorted.
	Count int   `json:"count"`
	Pairs []int `json:"pairs"`
	// MaxWidth and MaxLength are maxima over all encounters.
	MaxWidth  int `json:"max_width"`
	MaxLength int `json:"max_length"`
}

// AtlasShardHeader is the first line of one shard block. An empty
// block has no fences: 0.0.0.0 (topo.StarAddr) is never an atlas
// address.
type AtlasShardHeader struct {
	Shard   int         `json:"shard"`
	Nodes   int         `json:"nodes"`
	Routers int         `json:"routers"`
	Min     packet.Addr `json:"min,omitempty"`
	Max     packet.Addr `json:"max,omitempty"`
}

// AtlasNodeV2 is one node line: the address with its provenance (Seen
// lists the (pair index, hop) observations, sorted), its outgoing links
// (by destination address) and the representative of the router
// component containing it, when any (zero when none).
type AtlasNodeV2 struct {
	Addr   packet.Addr   `json:"addr"`
	Seen   [][2]int      `json:"seen"`
	Succ   []packet.Addr `json:"succ"`
	Router packet.Addr   `json:"router,omitempty"`
}

// AtlasShard is one decoded shard block: a contiguous address range of
// nodes plus the router components whose representative falls in the
// range.
type AtlasShard struct {
	Header  AtlasShardHeader
	Nodes   []AtlasNodeV2
	Routers []AtlasRouter
}

// AtlasShardInfo locates one shard block in the file and repeats its
// fences so a reader can route a query without touching the block.
type AtlasShardInfo struct {
	Off     int64       `json:"off"`
	Len     int64       `json:"len"`
	Nodes   int         `json:"nodes"`
	Routers int         `json:"routers"`
	Min     packet.Addr `json:"min,omitempty"`
	Max     packet.Addr `json:"max,omitempty"`
}

// AtlasIndex is the index line: absolute byte spans for every
// random-access section.
type AtlasIndex struct {
	Kind        string           `json:"kind"`
	PairsOff    int64            `json:"pairs_off"`
	PairsLen    int64            `json:"pairs_len"`
	Shards      []AtlasShardInfo `json:"shards"`
	DiamondsOff int64            `json:"diamonds_off"`
	DiamondsLen int64            `json:"diamonds_len"`
}

// atlasTrailer is the fixed last line locating the index.
type atlasTrailer struct {
	Kind     string `json:"kind"`
	Version  int    `json:"version"`
	IndexOff int64  `json:"index_off"`
	IndexLen int64  `json:"index_len"`
}

// AtlasShardForAddr returns the shard whose address range owns addr,
// given the per-shard minimum fences: the last shard whose minimum is
// <= addr, or 0 when addr precedes every fence. For an address that is
// a node this is exactly the containing shard; for others it is where
// that address would live, which is the router placement rule — a
// router component is stored in the shard owning its representative.
func AtlasShardForAddr(mins []packet.Addr, addr packet.Addr) int {
	i := sort.Search(len(mins), func(i int) bool { return mins[i] > addr })
	if i == 0 {
		return 0
	}
	return i - 1
}

// AtlasBlockOf returns shard i's [lo, hi) slice of a canonical node
// order of n nodes.
func AtlasBlockOf(shard, n int) (lo, hi int) {
	lo = shard * DefaultAtlasShardNodes
	hi = lo + DefaultAtlasShardNodes
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// lineScanner yields the lines of one in-memory section, numbering
// them as it goes. Every line ends in '\n' and holds at least one byte
// before it: a blank line, or a last line with no '\n', is an error, and
// so is a line of maxAtlasLine bytes or more (bufio.ErrTooLong). Nothing
// is trimmed: a '\r' before the '\n' stays on the line, for its parser
// to refuse. Lines are substrings of the section, never copies, so
// whatever a hand parser keeps of a line shares the section's one
// allocation.
type lineScanner struct {
	buf  string
	off  int // first unread byte
	line int
	last int // offset of the last line next returned
}

func newLineScanner(buf string) *lineScanner {
	return &lineScanner{buf: buf}
}

// next returns the next line, without its '\n'.
func (ls *lineScanner) next() (string, error) {
	if ls.off >= len(ls.buf) {
		return "", fmt.Errorf("traceio: atlas truncated after line %d", ls.line)
	}
	ls.line++
	rest := ls.buf[ls.off:]
	n := strings.IndexByte(rest, '\n')
	switch {
	case n >= maxAtlasLine || (n < 0 && len(rest) >= maxAtlasLine):
		ls.off = len(ls.buf) // like bufio.Scanner, stop for good
		return "", fmt.Errorf("traceio: atlas line %d: %v", ls.line, bufio.ErrTooLong)
	case n < 0:
		return "", fmt.Errorf("traceio: atlas line %d: no final newline", ls.line)
	case n == 0:
		return "", fmt.Errorf("traceio: atlas line %d: blank line", ls.line)
	}
	ls.last = ls.off
	ls.off += n + 1
	return rest[:n], nil
}

// finish errors if any byte remains.
func (ls *lineScanner) finish() error {
	if ls.off < len(ls.buf) {
		return fmt.Errorf("traceio: atlas has trailing data after line %d", ls.line)
	}
	return nil
}

func decodeAtlasHeader(ls *lineScanner) (AtlasHeader, error) {
	var h AtlasHeader
	hb, err := ls.next()
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		return h, fmt.Errorf("traceio: bad atlas header: %v", err)
	}
	if h.Kind != atlasKind {
		return h, fmt.Errorf("traceio: not an atlas snapshot (kind %q)", h.Kind)
	}
	if h.Version == 1 {
		return h, fmt.Errorf("traceio: atlas snapshot version 1 is no longer supported")
	}
	if h.Version != AtlasVersion {
		return h, fmt.Errorf("traceio: atlas version %d, want %d", h.Version, AtlasVersion)
	}
	if h.Pairs < 0 || h.Nodes < 0 || h.Edges < 0 || h.Routers < 0 || h.Diamonds < 0 || h.Shards < 0 {
		return h, fmt.Errorf("traceio: atlas header has negative section count")
	}
	if !fitsInt32(h.Pairs, h.Nodes, h.Edges, h.Routers, h.Diamonds, h.Shards) {
		return h, fmt.Errorf("traceio: atlas header has a section count past int32")
	}
	if err := checkCanonical(hb, &h); err != nil {
		return h, fmt.Errorf("traceio: bad atlas header: %v", err)
	}
	return h, nil
}

func cappedPrealloc(n int) int {
	if n > preallocCap {
		return preallocCap
	}
	return n
}

// decodePairs reads the n pair lines of the section ls scans, indices
// strictly ascending (validatePair): a repeated index would give one
// pair two identities, and a reader that folds them keeps the last.
func decodePairs(ls *lineScanner, n int) ([]AtlasPair, error) {
	d := newLineDecoder(0)
	out := make([]AtlasPair, 0, cappedPrealloc(n))
	prev := -1
	for i := 0; i < n; i++ {
		b, err := ls.next()
		if err != nil {
			return nil, err
		}
		var p AtlasPair
		if err := d.pair(b, &p); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: bad pair: %v", ls.line, err)
		}
		if err := validatePair(p.Pair, prev); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: %v", ls.line, err)
		}
		prev = p.Pair
		out = append(out, p)
	}
	return out, nil
}

// validatePair is the pair-order rule both the reader and the stream
// encoder enforce: an index above prev, the previous line's (-1 before
// the first, so no index is negative), as Atlas.sortedPairs writes
// them. A delta snapshot holds only its own new pairs, so its first
// index may be above 0.
func validatePair(pair, prev int) error {
	if pair <= prev {
		return fmt.Errorf("pair %d out of canonical order", pair)
	}
	if !fitsInt32(pair) {
		return fmt.Errorf("pair %d past int32", pair)
	}
	return nil
}

// decodeDiamonds reads the n diamond lines of the section ls scans.
func decodeDiamonds(ls *lineScanner, n int) ([]AtlasDiamond, error) {
	d := newLineDecoder(n)
	out := make([]AtlasDiamond, 0, cappedPrealloc(n))
	for i := 0; i < n; i++ {
		b, err := ls.next()
		if err != nil {
			return nil, err
		}
		var dm AtlasDiamond
		if err := d.diamond(b, &dm); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: bad diamond: %v", ls.line, err)
		}
		if err := validateDiamond(&dm); err != nil {
			return nil, fmt.Errorf("traceio: atlas line %d: %v", ls.line, err)
		}
		out = append(out, dm)
	}
	return out, nil
}

// validateDiamond is the diamond rule both the reader and the stream
// encoder enforce: no negative count or pair index, and no integer past
// int32.
func validateDiamond(dm *AtlasDiamond) error {
	if dm.Count < 0 {
		return errors.New("negative diamond count")
	}
	if !fitsInt32(dm.Count, dm.MaxWidth, dm.MaxLength) {
		return errors.New("diamond size past int32")
	}
	for _, p := range dm.Pairs {
		if p < 0 {
			return errors.New("negative diamond pair")
		}
		if !fitsInt32(p) {
			return errors.New("diamond pair past int32")
		}
	}
	return nil
}

// decodeShardHeader parses and validates one shard-header line.
func decodeShardHeader(ls *lineScanner, want int) (AtlasShardHeader, error) {
	var sh AtlasShardHeader
	b, err := ls.next()
	if err != nil {
		return sh, err
	}
	if err := parseShardHeader(b, &sh); err != nil {
		return sh, fmt.Errorf("traceio: atlas line %d: bad shard header: %v", ls.line, err)
	}
	if sh.Shard != want {
		return sh, fmt.Errorf("traceio: atlas line %d: shard %d, want %d", ls.line, sh.Shard, want)
	}
	if sh.Nodes < 0 || sh.Routers < 0 {
		return sh, fmt.Errorf("traceio: atlas line %d: negative shard section count", ls.line)
	}
	return sh, nil
}

// decodeNode parses and validates one node line: address strictly
// ascending over prev (0 before a block's first node, so 0.0.0.0 is
// never a node), and what nodeLine checks. These are canonical-order
// facts every real snapshot satisfies, and validating them at decode
// time is what guarantees any accepted block re-encodes cleanly (shard
// fences need ordered addresses). The node is decoded into *n, which
// must be zero.
func (d *lineDecoder) decodeNode(ls *lineScanner, n *AtlasNodeV2, prev packet.Addr) error {
	b, err := ls.next()
	if err != nil {
		return err
	}
	if err := nodeLine(d, b, n); err != nil {
		return fmt.Errorf("traceio: atlas line %d: %v", ls.line, err)
	}
	if n.Addr <= prev {
		return fmt.Errorf("traceio: atlas line %d: node %s out of canonical order", ls.line, n.Addr)
	}
	return nil
}

// nodeLine decodes one node line into *n, which must be zero, and
// checks what a line can say of itself: non-negative provenance. Only a
// canonical line decodes (parseNode). A block decode and a point read
// both take a node line through here.
func nodeLine[S string | []byte](d *lineDecoder, b S, n *AtlasNodeV2) error {
	if err := parseNode(d, b, n); err != nil {
		return fmt.Errorf("bad node: %v", err)
	}
	return validateSeen(n.Seen)
}

// validateSeen is the provenance rule both the reader and the block
// encoder enforce: no negative pair index or hop, and none past int32.
func validateSeen(seen [][2]int) error {
	for _, o := range seen {
		if o[0] < 0 || o[1] < 0 {
			return errors.New("negative provenance")
		}
		if !fitsInt32(o[0], o[1]) {
			return errors.New("provenance past int32")
		}
	}
	return nil
}

// decodeRouter parses and validates one router line into *rt, which
// must be zero (validateRouter says what a router line must be).
func (d *lineDecoder) decodeRouter(ls *lineScanner, rt *AtlasRouter, prev packet.Addr) error {
	b, err := ls.next()
	if err != nil {
		return err
	}
	if err := routerLine(d, b, rt, prev); err != nil {
		return fmt.Errorf("traceio: atlas line %d: %v", ls.line, err)
	}
	return nil
}

// routerLine decodes one router line into *rt, which must be zero, as
// nodeLine does, and validates it against prev, the previous line's
// representative.
func routerLine[S string | []byte](d *lineDecoder, b S, rt *AtlasRouter, prev packet.Addr) error {
	if err := parseRouter(d, b, rt); err != nil {
		return fmt.Errorf("bad router: %v", err)
	}
	return validateRouter(rt, prev)
}

// validateRouter is the router invariant both the reader and the stream
// encoder enforce: at least two members, and a representative (the
// first) above prev, the previous line's, so a block's router lines
// ascend and serve can binary-search them.
func validateRouter(rt *AtlasRouter, prev packet.Addr) error {
	if len(rt.Addrs) < 2 {
		return fmt.Errorf("router with %d addresses", len(rt.Addrs))
	}
	if rt.Addrs[0] <= prev {
		return fmt.Errorf("router %s out of canonical order", rt.Addrs[0])
	}
	return nil
}
