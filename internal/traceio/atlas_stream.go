package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mmlpt/internal/packet"
)

// Streaming encoder: the write-side dual of AtlasReader and the only
// snapshot writer. It takes the header-level totals up front
// (AtlasStreamSpec) and then accepts the shard blocks one at a time, so
// a producer holding the atlas in some other shape — the in-memory
// sharded store, or k-way merge cursors over snapshot files — never
// builds a flat copy of it. Peak memory is one block (or, for a
// parallel producer, a few blocks in flight), not the whole file.
//
// A block's bytes are a pure function of its AtlasShard value
// (AppendAtlasShardBlock), so any producer that feeds the same blocks
// gets the same file — whatever worker count produced them.

// AtlasStreamSpec carries everything the header and trailer sections
// need before the first shard block: the section totals, the pair
// section (small, written with the header), and the diamond census
// (small, written by Finish).
type AtlasStreamSpec struct {
	Pairs    []AtlasPair
	Nodes    int
	Edges    int
	Routers  int
	Shards   int
	Diamonds []AtlasDiamond
}

// AtlasStreamEncoder writes a snapshot incrementally: header and
// pairs at construction, one fenced shard block per WriteBlock /
// WriteEncodedBlock call, diamonds + index + trailer at Finish. Blocks
// must arrive in shard order. The encoder cross-checks every block
// against the spec's totals and the fence ordering, so a buggy producer
// fails the encode instead of writing a file the decoder would reject.
type AtlasStreamEncoder struct {
	bw   *bufio.Writer
	cw   *countingWriter
	enc  *json.Encoder
	spec AtlasStreamSpec
	idx  AtlasIndex

	shards  int
	nodes   int
	edges   int
	routers int
	prevMax packet.Addr // 0.0.0.0 is never a fence
}

// NewAtlasStreamEncoder starts a streaming encode: it validates the
// spec (counts, pair order, diamond counts and pairs, and pair and
// diamond strings a line can hold, see checkPlain), writes the header
// and the pair section, and returns an encoder ready for the first
// shard block. Block boundaries are the producer's (AtlasBlockOf for
// the canonical layout).
func NewAtlasStreamEncoder(w io.Writer, spec AtlasStreamSpec) (*AtlasStreamEncoder, error) {
	if spec.Nodes < 0 || spec.Edges < 0 || spec.Routers < 0 {
		return nil, fmt.Errorf("traceio: atlas stream spec has negative section count")
	}
	if spec.Shards < 1 {
		return nil, fmt.Errorf("traceio: atlas stream spec needs at least one shard")
	}
	if spec.Nodes == 0 && spec.Shards != 1 {
		return nil, fmt.Errorf("traceio: atlas stream spec: %d shards for 0 nodes", spec.Shards)
	}
	if spec.Nodes > 0 && spec.Shards > spec.Nodes {
		return nil, fmt.Errorf("traceio: atlas stream spec: %d shards for %d nodes", spec.Shards, spec.Nodes)
	}
	prev := -1
	for _, p := range spec.Pairs {
		if err := validatePair(p.Pair, prev); err != nil {
			return nil, fmt.Errorf("traceio: atlas stream spec: %v", err)
		}
		if err := checkPlain(p.Src, p.Dst); err != nil {
			return nil, fmt.Errorf("traceio: atlas stream spec: pair %d: %v", p.Pair, err)
		}
		prev = p.Pair
	}
	for i := range spec.Diamonds {
		d := &spec.Diamonds[i]
		if err := checkPlain(d.Div, d.Conv); err != nil {
			return nil, fmt.Errorf("traceio: atlas stream spec: diamond: %v", err)
		}
		if err := validateDiamond(d); err != nil {
			return nil, fmt.Errorf("traceio: atlas stream spec: diamond %s-%s: %v", d.Div, d.Conv, err)
		}
	}
	e := &AtlasStreamEncoder{bw: bufio.NewWriter(w), spec: spec}
	e.cw = &countingWriter{w: e.bw}
	e.enc = json.NewEncoder(e.cw)
	h := AtlasHeader{
		Version: AtlasVersion, Kind: atlasKind,
		Pairs: len(spec.Pairs), Nodes: spec.Nodes, Edges: spec.Edges,
		Routers: spec.Routers, Diamonds: len(spec.Diamonds),
		Shards: spec.Shards,
	}
	if err := e.enc.Encode(&h); err != nil {
		return nil, err
	}
	e.idx = AtlasIndex{Kind: atlasIndexKind, Shards: make([]AtlasShardInfo, 0, spec.Shards)}
	e.idx.PairsOff = e.cw.n
	for i := range spec.Pairs {
		if err := e.enc.Encode(&spec.Pairs[i]); err != nil {
			return nil, err
		}
	}
	e.idx.PairsLen = e.cw.n - e.idx.PairsOff
	return e, nil
}

// WriteBlock encodes and writes the next shard block. The block is
// validated exactly as AppendAtlasShardBlock documents, plus the
// cross-block invariants (shard sequence, ascending fences).
func (e *AtlasStreamEncoder) WriteBlock(sh *AtlasShard) error {
	raw, edges, err := AppendAtlasShardBlock(nil, sh)
	if err != nil {
		return err
	}
	return e.WriteEncodedBlock(raw, sh.Header, edges)
}

// WriteEncodedBlock writes a shard block already rendered by
// AppendAtlasShardBlock — the parallel producer's path: workers marshal
// blocks into private buffers, the coordinator hands them over in shard
// order. hdr and edges must be the values the block was rendered with;
// the encoder checks the cross-block invariants and accumulates the
// section totals it verifies at Finish.
func (e *AtlasStreamEncoder) WriteEncodedBlock(raw []byte, hdr AtlasShardHeader, edges int) error {
	if hdr.Shard != e.shards {
		return fmt.Errorf("traceio: atlas stream: shard %d out of order (want %d)", hdr.Shard, e.shards)
	}
	if hdr.Shard >= e.spec.Shards {
		return fmt.Errorf("traceio: atlas stream: shard %d beyond spec's %d", hdr.Shard, e.spec.Shards)
	}
	if hdr.Nodes > 0 {
		if hdr.Min <= e.prevMax || hdr.Max < hdr.Min {
			return fmt.Errorf("traceio: atlas stream: shard %d fences out of order", hdr.Shard)
		}
		e.prevMax = hdr.Max
	}
	off := e.cw.n
	if _, err := e.cw.Write(raw); err != nil {
		return err
	}
	e.idx.Shards = append(e.idx.Shards, AtlasShardInfo{
		Off: off, Len: e.cw.n - off,
		Nodes: hdr.Nodes, Routers: hdr.Routers,
		Min: hdr.Min, Max: hdr.Max,
	})
	e.shards++
	e.nodes += hdr.Nodes
	e.edges += edges
	e.routers += hdr.Routers
	return nil
}

// Finish writes the diamond, index and trailer sections, verifies the
// stream delivered exactly the spec's totals, and flushes. The encoder
// is not usable afterwards.
func (e *AtlasStreamEncoder) Finish() error {
	if e.shards != e.spec.Shards {
		return fmt.Errorf("traceio: atlas stream: %d shard blocks written, spec claims %d", e.shards, e.spec.Shards)
	}
	if e.nodes != e.spec.Nodes {
		return fmt.Errorf("traceio: atlas stream: blocks hold %d nodes, spec claims %d", e.nodes, e.spec.Nodes)
	}
	if e.edges != e.spec.Edges {
		return fmt.Errorf("traceio: atlas stream: blocks hold %d edges, spec claims %d", e.edges, e.spec.Edges)
	}
	if e.routers != e.spec.Routers {
		return fmt.Errorf("traceio: atlas stream: blocks hold %d routers, spec claims %d", e.routers, e.spec.Routers)
	}
	e.idx.DiamondsOff = e.cw.n
	for i := range e.spec.Diamonds {
		if err := e.enc.Encode(&e.spec.Diamonds[i]); err != nil {
			return err
		}
	}
	e.idx.DiamondsLen = e.cw.n - e.idx.DiamondsOff
	indexOff := e.cw.n
	if err := e.enc.Encode(&e.idx); err != nil {
		return err
	}
	t := atlasTrailer{
		Kind: atlasTrailerKind, Version: AtlasVersion,
		IndexOff: indexOff, IndexLen: e.cw.n - indexOff,
	}
	if err := e.enc.Encode(&t); err != nil {
		return err
	}
	return e.bw.Flush()
}

// AppendAtlasShardBlock appends the encoded form of one shard block —
// the shard-header line, the node lines, the router lines — to buf and
// returns the extended buffer plus the number of edges (succ entries)
// the block carries. The bytes are a pure function of sh, independent
// of which goroutine renders them, which is what lets a parallel
// producer marshal blocks out of order and still assemble a
// byte-deterministic file.
//
// The block is validated as a unit: header counts must match the
// slices, node addresses must ascend strictly from above 0.0.0.0,
// provenance must be non-negative, fences must equal the first and
// last node address, and router lines need two or more members and
// representatives ascending.
func AppendAtlasShardBlock(buf []byte, sh *AtlasShard) ([]byte, int, error) {
	h := sh.Header
	if h.Nodes != len(sh.Nodes) || h.Routers != len(sh.Routers) {
		return nil, 0, fmt.Errorf("traceio: atlas shard %d: header counts (%d,%d) disagree with block (%d,%d)",
			h.Shard, h.Nodes, h.Routers, len(sh.Nodes), len(sh.Routers))
	}
	if len(sh.Nodes) == 0 {
		if h.Min != 0 || h.Max != 0 {
			return nil, 0, fmt.Errorf("traceio: atlas shard %d: fences on an empty shard", h.Shard)
		}
	} else if h.Min != sh.Nodes[0].Addr || h.Max != sh.Nodes[len(sh.Nodes)-1].Addr {
		return nil, 0, fmt.Errorf("traceio: atlas shard %d: fences [%s,%s] disagree with nodes [%s,%s]",
			h.Shard, h.Min, h.Max, sh.Nodes[0].Addr, sh.Nodes[len(sh.Nodes)-1].Addr)
	}
	var err error
	if buf, err = appendJSONLine(buf, &h); err != nil {
		return nil, 0, err
	}
	edges := 0
	var prev packet.Addr
	for i := range sh.Nodes {
		n := &sh.Nodes[i]
		if n.Addr <= prev {
			return nil, 0, fmt.Errorf("traceio: atlas shard %d: node %s out of canonical order", h.Shard, n.Addr)
		}
		prev = n.Addr
		if verr := validateSeen(n.Seen); verr != nil {
			return nil, 0, fmt.Errorf("traceio: atlas shard %d: node %s: %v", h.Shard, n.Addr, verr)
		}
		edges += len(n.Succ)
		buf = appendNodeLine(buf, n)
	}
	prev = 0
	for i := range sh.Routers {
		r := &sh.Routers[i]
		if verr := validateRouter(r, prev); verr != nil {
			return nil, 0, fmt.Errorf("traceio: atlas shard %d: %v", h.Shard, verr)
		}
		prev = r.Addrs[0]
		buf = appendRouterLine(buf, r)
	}
	return buf, edges, nil
}

// appendJSONLine appends v's JSON encoding plus the '\n' terminator,
// byte-identical to json.Encoder.Encode.
func appendJSONLine(buf []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	buf = append(buf, b...)
	return append(buf, '\n'), nil
}
