// Package atlas is the cross-trace topology store: a concurrent,
// sharded accumulator that merges per-pair IP-level graphs, alias
// evidence and diamond encounters into one queryable multilevel view of
// the whole surveyed internet (the aggregation the paper's Sec 5
// surveys perform implicitly when they report router sizes and diamond
// effects "across the internet").
//
// Graphs from different vantage points are not globally hop-aligned —
// the same interface sits at hop 6 of one trace and hop 11 of another —
// so the merged graph cannot be the per-trace hop-indexed topo.Graph.
// Instead the atlas is keyed by address: one node per interface
// address, edges wherever any trace observed a link, and hop positions
// demoted to per-source provenance annotations ((pair, hop)
// observations).
//
// Ingestion is sharded by address for lock-freedom across concurrent
// writers. There is one way out — WriteTo/Save stream the snapshot
// file (traceio's atlas format) by merging the shards in canonical
// (ascending address) order, which is what makes the bytes independent
// of worker count, shard count and ingestion order — and one merge of
// files, Compact; both build the same plan (plan.go) and feed the same
// stream encoder. Queries over a written snapshot go through
// internal/atlas/serve.
package atlas

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"mmlpt/internal/alias"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// Obs is one provenance observation: pair Pair saw the address at hop
// Hop of its trace.
type Obs struct {
	Pair int
	Hop  int
}

// DefaultShards is the shard count when Options.Shards is zero.
const DefaultShards = 16

// Options configures an Atlas.
type Options struct {
	// Shards is the number of address-hash ingestion shards. Shard
	// count affects only lock contention, never output: snapshots are
	// identical for every value.
	Shards int
	// MergeWorkers is the worker count for the canonical merge behind
	// WriteTo, Save and streaming Compact (0 = GOMAXPROCS, 1 = serial).
	// Like Shards it affects only speed: snapshot bytes are identical
	// for every value.
	MergeWorkers int
}

// Atlas is the sharded cross-trace store. All methods are safe for
// concurrent use.
//
// Locking discipline: ingestion takes snapMu read-side plus the mutex
// of each shard it touches. WriteTo instead takes snapMu write-side for
// the whole streaming encode: with every writer excluded, its counting
// pass and its emit pass observe the same state (the byte-determinism
// contract needs the header totals to match the blocks exactly), and
// its partition workers can read and lazily sort disjoint nodes with no
// per-node locking at all.
type Atlas struct {
	shards       []*shard
	mergeWorkers int

	// snapMu is the snapshot gate described above: read-locked by
	// ingestion, write-locked by WriteTo.
	snapMu sync.RWMutex

	mu     sync.Mutex
	union  *alias.Union
	census map[censusKey]*censusEntry
	pairs  map[int]pairInfo
}

type shard struct {
	mu    sync.Mutex
	nodes map[packet.Addr]*nodeState
}

type nodeState struct {
	seen []Obs
	succ map[packet.Addr]struct{}
	// dirty marks seen as unsorted/undeduped since the last canonical
	// pass, so a repeated WriteTo does not re-sort an already canonical
	// slice.
	dirty bool
}

type censusKey struct{ div, conv string }

type censusEntry struct {
	count     int
	pairs     map[int]struct{}
	maxWidth  int
	maxLength int
}

type pairInfo struct{ src, dst string }

// New returns an empty atlas.
func New(opt Options) *Atlas {
	n := opt.Shards
	if n <= 0 {
		n = DefaultShards
	}
	a := &Atlas{
		shards:       make([]*shard, n),
		mergeWorkers: opt.MergeWorkers,
		union:        alias.NewUnion(),
		census:       make(map[censusKey]*censusEntry),
		pairs:        make(map[int]pairInfo),
	}
	for i := range a.shards {
		a.shards[i] = &shard{nodes: make(map[packet.Addr]*nodeState)}
	}
	return a
}

func (a *Atlas) shardIndexOf(addr packet.Addr) int {
	// Addresses are dense allocations; a multiplicative hash spreads
	// them evenly over any shard count.
	h := uint32(addr) * 0x9e3779b1
	return int(h % uint32(len(a.shards)))
}

func (a *Atlas) shardOf(addr packet.Addr) *shard {
	return a.shards[a.shardIndexOf(addr)]
}

func (a *Atlas) node(s *shard, addr packet.Addr) *nodeState {
	n, ok := s.nodes[addr]
	if !ok {
		n = &nodeState{}
		s.nodes[addr] = n
	}
	return n
}

// AddGraph merges one pair's IP-level trace graph: every responsive
// vertex contributes a (pair, hop) observation, every edge between
// responsive vertices a link. Star (non-responsive) vertices have no
// address and are skipped.
func (a *Atlas) AddGraph(pair int, g *topo.Graph) {
	a.snapMu.RLock()
	defer a.snapMu.RUnlock()
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.Addr == topo.StarAddr {
			continue
		}
		s := a.shardOf(v.Addr)
		s.mu.Lock()
		n := a.node(s, v.Addr)
		n.seen = append(n.seen, Obs{Pair: pair, Hop: v.Hop})
		n.dirty = true
		s.mu.Unlock()
	}
	for i := range g.Vertices {
		u := &g.Vertices[i]
		if u.Addr == topo.StarAddr {
			continue
		}
		for _, w := range g.Succ(topo.VertexID(i)) {
			wa := g.V(w).Addr
			if wa == topo.StarAddr {
				continue
			}
			s := a.shardOf(u.Addr)
			s.mu.Lock()
			n := a.node(s, u.Addr)
			if n.succ == nil {
				n.succ = make(map[packet.Addr]struct{})
			}
			n.succ[wa] = struct{}{}
			s.mu.Unlock()
		}
	}
}

// AddAliasSet merges one trace's accepted alias set into the growing
// router identities.
func (a *Atlas) AddAliasSet(addrs []packet.Addr) {
	if len(addrs) < 2 {
		return
	}
	a.mu.Lock()
	a.union.AddSet(addrs)
	a.mu.Unlock()
}

// AddDiamond folds one diamond encounter into the cross-pair census.
func (a *Atlas) AddDiamond(pair int, d traceio.SurveyDiamond) {
	a.foldCensus(censusKey{div: d.Div, conv: d.Conv}, 1, d.MaxWidth, d.MaxLength, pair)
}

// foldCensus adds count encounters of diamond k by pairs — one from
// ingestion, or a snapshot's accumulated entry from Compact — into the
// census: encounter counts sum, pair sets union, widths and lengths
// keep their maxima.
func (a *Atlas) foldCensus(k censusKey, count, maxWidth, maxLength int, pairs ...int) {
	a.mu.Lock()
	e, ok := a.census[k]
	if !ok {
		e = &censusEntry{pairs: make(map[int]struct{}, len(pairs))}
		a.census[k] = e
	}
	e.count += count
	for _, p := range pairs {
		e.pairs[p] = struct{}{}
	}
	if maxWidth > e.maxWidth {
		e.maxWidth = maxWidth
	}
	if maxLength > e.maxLength {
		e.maxLength = maxLength
	}
	a.mu.Unlock()
}

// addRouter merges one router component given as address strings, the
// form survey records and snapshot files carry.
func (a *Atlas) addRouter(addrs []string) error {
	set := make([]packet.Addr, 0, len(addrs))
	for _, s := range addrs {
		addr, err := packet.ParseAddr(s)
		if err != nil {
			return fmt.Errorf("router address %q: %w", s, err)
		}
		set = append(set, addr)
	}
	a.AddAliasSet(set)
	return nil
}

// AddPair records the identity of one traced pair. A later call for the
// same index replaces the earlier one.
func (a *Atlas) AddPair(pair int, src, dst string) {
	a.mu.Lock()
	a.pairs[pair] = pairInfo{src: src, dst: dst}
	a.mu.Unlock()
}

// AddRecord merges one streamed survey record: the trace topology, the
// per-trace routers (alias sets) and the diamond encounters. This is
// what survey.AtlasSink feeds, live or replayed.
func (a *Atlas) AddRecord(rec *traceio.SurveyRecord) error {
	g, err := traceio.DecodeGraph(rec.Trace.Vertices, rec.Trace.Edges)
	if err != nil {
		return fmt.Errorf("atlas: pair %d: %w", rec.PairIndex, err)
	}
	a.AddGraph(rec.PairIndex, g)
	for _, r := range rec.Trace.Routers {
		if err := a.addRouter(r.Addrs); err != nil {
			return fmt.Errorf("atlas: pair %d: %w", rec.PairIndex, err)
		}
	}
	for _, d := range rec.Diamonds {
		a.AddDiamond(rec.PairIndex, d)
	}
	a.AddPair(rec.PairIndex, rec.Trace.Src, rec.Trace.Dst)
	return nil
}

// Routers returns the aggregated router components themselves. Only the
// O(addresses) component collection happens under the atlas lock; the
// canonical sort runs outside it, so a large-survey Routers call cannot
// stall concurrent AddRecord ingestion for the sort's duration.
func (a *Atlas) Routers() [][]packet.Addr {
	a.mu.Lock()
	groups := a.union.UnsortedGroups()
	a.mu.Unlock()
	return alias.SortGroups(groups)
}

// Census returns the cross-pair diamond census in canonical (div, conv)
// order. Like Routers, the lock covers only the map snapshot; sorting
// the keys and pair sets happens after ingestion is unblocked.
func (a *Atlas) Census() []traceio.AtlasDiamond {
	a.mu.Lock()
	out := make([]traceio.AtlasDiamond, 0, len(a.census))
	for k, e := range a.census {
		ps := make([]int, 0, len(e.pairs))
		for p := range e.pairs {
			ps = append(ps, p)
		}
		out = append(out, traceio.AtlasDiamond{
			Div: k.div, Conv: k.conv, Count: e.count, Pairs: ps,
			MaxWidth: e.maxWidth, MaxLength: e.maxLength,
		})
	}
	a.mu.Unlock()
	for _, d := range out {
		sort.Ints(d.Pairs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Div != out[j].Div {
			return out[i].Div < out[j].Div
		}
		return out[i].Conv < out[j].Conv
	})
	return out
}

// sortedPairs copies the pair section in canonical (index) order.
func (a *Atlas) sortedPairs() []traceio.AtlasPair {
	a.mu.Lock()
	defer a.mu.Unlock()
	idxs := make([]int, 0, len(a.pairs))
	for i := range a.pairs {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	var out []traceio.AtlasPair
	for _, i := range idxs {
		p := a.pairs[i]
		out = append(out, traceio.AtlasPair{Pair: i, Src: p.src, Dst: p.dst})
	}
	return out
}

// sortedObs sorts and dedups one node's observations in place.
func sortedObs(seen []Obs) []Obs {
	// slices.SortFunc, not sort.Slice: this runs once per node inside
	// the merge hot path, and the interface-based sort's closure
	// allocations add up across a million nodes.
	slices.SortFunc(seen, func(a, b Obs) int {
		if a.Pair != b.Pair {
			return a.Pair - b.Pair
		}
		return a.Hop - b.Hop
	})
	// Dedup: a replayed record or duplicate AddGraph must not inflate
	// provenance.
	out := seen[:0]
	for i, o := range seen {
		if i == 0 || o != seen[i-1] {
			out = append(out, o)
		}
	}
	return out
}

// Save persists the atlas snapshot atomically, streaming through
// WriteTo so the file is never held in memory.
func (a *Atlas) Save(path string) error {
	return traceio.WriteFileAtomicStream(path, 0o644, func(w io.Writer) error {
		_, err := a.WriteTo(w)
		return err
	})
}

// Stats summarizes a snapshot for CLI output.
type Stats struct {
	Pairs    int
	Nodes    int
	Edges    int
	Routers  int
	Diamonds int
}

// HeaderStats reads the stats off a written snapshot's header, which
// commits to every section total.
func HeaderStats(h traceio.AtlasHeader) Stats {
	return Stats{Pairs: h.Pairs, Nodes: h.Nodes, Edges: h.Edges, Routers: h.Routers, Diamonds: h.Diamonds}
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("atlas: %d pairs, %d addresses, %d links, %d routers, %d distinct diamonds",
		s.Pairs, s.Nodes, s.Edges, s.Routers, s.Diamonds)
}
