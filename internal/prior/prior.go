// Package prior extracts per-(src, dst) expected topology from a
// cross-trace atlas snapshot, for seeding re-traces: hop widths and
// per-hop vertex sets, the links recorded between adjacent hops, and —
// when captured in-process — the flow identifiers previously observed to
// land on each vertex. Priors are read through the atlas serving layer
// (internal/atlas/serve), so they come from the same indexed v2 snapshot
// format atlasd serves, and a PairPrior satisfies mda.TracePrior so the
// MDA-Lite can consume it directly.
//
// The per-pair reconstruction intersects each node's (pair, hop)
// provenance with the atlas's merged successor lists: a link u→w is
// attributed to a pair when u and w sit at adjacent hops of that pair
// and some trace recorded the link. Where pairs share addresses (shared
// trunks from one vantage point) this can over-attribute a link, but a
// prior is a hypothesis, not ground truth: the confirmation pass
// corroborates every vertex against live replies and any mismatch falls
// back to full discovery.
package prior

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

// PairPrior is the expected topology of one (src, dst) pair. It
// implements mda.TracePrior; the zero value is unusable — build one via
// FromService, FromGraph, or New.
type PairPrior struct {
	Src, Dst packet.Addr

	// hops[h] is the sorted expected vertex set at hop h; nil marks a hop
	// the earlier trace did not cover (e.g. it saw only stars there).
	hops [][]packet.Addr
	// edges holds the recorded links between adjacent covered hops, each
	// u→w as edgeKey(u, w), ascending and without repeats.
	edges []uint64
	// hints maps (hop, addr) to the flows previously seen landing there;
	// nil until the first AddLanding.
	hints map[hintKey][]uint16
}

// edgeKey packs the link u→w into one sortable word.
func edgeKey(u, w packet.Addr) uint64 { return uint64(u)<<32 | uint64(w) }

type hintKey struct {
	hop  int
	addr packet.Addr
}

// New returns an empty prior for the pair, covering no hops.
func New(src, dst packet.Addr) *PairPrior {
	return &PairPrior{Src: src, Dst: dst}
}

// AddHopAddr records addr as expected at hop h. Stars are ignored: a
// silent hop carries no confirmable expectation.
func (pp *PairPrior) AddHopAddr(h int, addr packet.Addr) {
	if addr == topo.StarAddr || h < 0 {
		return
	}
	for len(pp.hops) <= h {
		pp.hops = append(pp.hops, nil)
	}
	for _, a := range pp.hops[h] {
		if a == addr {
			return
		}
	}
	pp.hops[h] = append(pp.hops[h], addr)
}

// AddEdge records an expected link u→w between adjacent hops.
func (pp *PairPrior) AddEdge(u, w packet.Addr) {
	if u == topo.StarAddr || w == topo.StarAddr {
		return
	}
	k := edgeKey(u, w)
	if i, found := slices.BinarySearch(pp.edges, k); !found {
		pp.edges = slices.Insert(pp.edges, i, k)
	}
}

// AddLanding records that flow f was observed to land on addr at hop h.
// Landings are flow hints only: they steer the confirmation pass toward
// flows likely to cover the expected set quickly, and stale ones cost at
// most their probes.
func (pp *PairPrior) AddLanding(h int, f uint16, addr packet.Addr) {
	if addr == topo.StarAddr || h < 0 {
		return
	}
	if pp.hints == nil {
		pp.hints = make(map[hintKey][]uint16)
	}
	k := hintKey{hop: h, addr: addr}
	for _, x := range pp.hints[k] {
		if x == f {
			return
		}
	}
	pp.hints[k] = append(pp.hints[k], f)
}

// normalize sorts every hop's vertex set and every hint list, making the
// prior's iteration order — and therefore a seeded trace's probe order —
// independent of construction order.
func (pp *PairPrior) normalize() {
	for _, hs := range pp.hops {
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	}
	for _, fs := range pp.hints {
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	}
}

// HopAddrs returns the expected addresses at hop h in sorted order, or
// ok=false when the prior does not cover hop h.
func (pp *PairPrior) HopAddrs(h int) ([]packet.Addr, bool) {
	if h < 0 || h >= len(pp.hops) || len(pp.hops[h]) == 0 {
		return nil, false
	}
	return pp.hops[h], true
}

// HasEdge reports whether the prior recorded a link u→w.
func (pp *PairPrior) HasEdge(u, w packet.Addr) bool {
	_, found := slices.BinarySearch(pp.edges, edgeKey(u, w))
	return found
}

// FlowHints returns the flows previously observed to land on addr at hop
// h, ascending, or nil when none were captured.
func (pp *PairPrior) FlowHints(h int, addr packet.Addr) []uint16 {
	return pp.hints[hintKey{hop: h, addr: addr}]
}

// CaptureLandings copies the responsive flow→address observations of a
// completed session into the prior as flow hints. This is only possible
// in-process (snapshots do not record flow identifiers), so it serves
// long-running re-survey loops that keep their priors live.
func (pp *PairPrior) CaptureLandings(s *mda.Session) {
	for h := 0; h < len(pp.hops); h++ {
		for _, l := range s.HopLandings(h) {
			pp.AddLanding(h, l.Flow, l.Addr)
		}
	}
}

// FromGraph builds a pair's prior directly from an earlier trace's
// result graph: each non-star vertex becomes an expectation at its hop,
// each edge a recorded link.
func FromGraph(src, dst packet.Addr, g *topo.Graph) *PairPrior {
	pp := New(src, dst)
	for h := 0; h < g.NumHops(); h++ {
		for _, v := range g.Hop(h) {
			pp.AddHopAddr(h, g.V(v).Addr)
		}
	}
	for h := 0; h+1 < g.NumHops(); h++ {
		for _, v := range g.Hop(h) {
			ua := g.V(v).Addr
			for _, w := range g.Succ(v) {
				pp.AddEdge(ua, g.V(w).Addr)
			}
		}
	}
	pp.normalize()
	return pp
}

// Index holds the priors of every pair in a snapshot, keyed by (src,
// dst). It is self-contained: the serving handle used to build it can be
// closed afterwards.
type Index struct {
	pairs map[[2]packet.Addr]*PairPrior
}

// Lookup returns the pair's prior, or nil when the snapshot never
// surveyed it.
func (ix *Index) Lookup(src, dst packet.Addr) *PairPrior {
	if ix == nil {
		return nil
	}
	return ix.pairs[[2]packet.Addr{src, dst}]
}

// Len returns the number of pairs indexed.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.pairs)
}

// Fingerprint returns a deterministic digest of the index's full content
// (pairs, hop sets, edges, hints). Survey option hashes include it so a
// resumed survey refuses a manifest written under a different prior.
func (ix *Index) Fingerprint() uint64 {
	if ix == nil {
		return 0
	}
	h := fnv.New64a()
	u32 := func(x uint32) {
		h.Write([]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
	}
	keys := make([][2]packet.Addr, 0, len(ix.pairs))
	for k := range ix.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		pp := ix.pairs[k]
		u32(uint32(pp.Src))
		u32(uint32(pp.Dst))
		u32(uint32(len(pp.hops)))
		for hi, hs := range pp.hops {
			u32(uint32(hi))
			for _, a := range hs {
				u32(uint32(a))
				// Edges and hints walk off the sorted hop sets so the
				// digest never ranges over a map.
				if hi+1 < len(pp.hops) {
					for _, w := range pp.hops[hi+1] {
						if pp.HasEdge(a, w) {
							u32(uint32(w))
						}
					}
				}
				for _, f := range pp.FlowHints(hi, a) {
					u32(uint32(f) | 1<<16)
				}
			}
		}
	}
	return h.Sum64()
}

// add registers pp under its pair key.
func (ix *Index) add(pp *PairPrior) {
	if ix.pairs == nil {
		ix.pairs = make(map[[2]packet.Addr]*PairPrior)
	}
	ix.pairs[[2]packet.Addr{pp.Src, pp.Dst}] = pp
}

// FromService extracts every pair's prior from the snapshot behind an
// open serving handle. Per-hop vertex sets come from the provenance
// section ((pair, hop) observations); links come from intersecting the
// merged successor lists with adjacent hop sets. The returned index
// holds no reference to svc.
//
// The build is dense and hash-free. The node scan runs in ascending
// address order, so a node's position in it is its id, and ids order a
// hop set as addresses do. The scan keeps every node's address and
// successor list by id, and every (pair, hop, id) observation; two
// stable counting sorts group those by pair and hop. Then, one pair per
// task, each hop-h node's successor list is merge-joined against the
// sorted hop-(h+1) set. The cost is O(nodes + observations + Σ|succ|),
// not one hash probe per (u, w) of two adjacent hop sets.
func FromService(svc *serve.Service) (*Index, error) {
	atlasPairs, err := svc.Pairs()
	if err != nil {
		return nil, err
	}
	b := &indexBuilder{
		pairs:  make([]int, len(atlasPairs)),
		priors: make([]PairPrior, len(atlasPairs)),
		succAt: []int32{0},
	}
	ix := &Index{}
	for i, ap := range atlasPairs {
		pp := &b.priors[i]
		if err := pp.Src.UnmarshalText([]byte(ap.Src)); err != nil {
			return nil, fmt.Errorf("prior: pair %d src: %w", ap.Pair, err)
		}
		if err := pp.Dst.UnmarshalText([]byte(ap.Dst)); err != nil {
			return nil, fmt.Errorf("prior: pair %d dst: %w", ap.Pair, err)
		}
		b.pairs[i] = ap.Pair
		ix.add(pp)
	}
	if err := svc.ForEachNode(b.node); err != nil {
		return nil, err
	}
	b.groupBySlot()
	par.Do(len(b.priors), 0, b.pair)
	return ix, nil
}

// indexBuilder is FromService's state: the pair section, what the node
// scan keeps of each node by id, and every pair's observations.
type indexBuilder struct {
	pairs  []int       // slot → pair index, strictly ascending (the reader refuses any other order)
	priors []PairPrior // slot → the pair's prior

	addrs  []packet.Addr // id → address
	succ   []packet.Addr // every node's successor list, each ascending, concatenated
	succAt []int32       // id → where its list starts in succ; one entry past the last id

	// obs holds every observation, in scan order and then, after
	// groupBySlot, slot by slot: slot s owns obs[at[s]:at[s+1]], and the
	// same span of hopAddrs.
	obs      []pairObs
	lastHop  int // the largest hop in obs
	at       []int
	hopAddrs []packet.Addr
}

// pairObs is one observation: node id at hop of the pair in slot.
type pairObs struct {
	hop  int
	id   int32
	slot int32
}

// node takes in the next node of the scan.
func (b *indexBuilder) node(n *traceio.AtlasNodeV2) error {
	id := int32(len(b.addrs))
	b.addrs = append(b.addrs, n.Addr)
	start := len(b.succ)
	b.succ = append(b.succ, n.Succ...)
	if s := b.succ[start:]; !slices.IsSorted(s) {
		// The reader accepts a list in any order; the join needs order.
		slices.Sort(s)
	}
	b.succAt = append(b.succAt, int32(len(b.succ)))
	if n.Addr == topo.StarAddr {
		return nil
	}
	for _, o := range n.Seen {
		slot, ok := slices.BinarySearch(b.pairs, o[0])
		if !ok || o[1] < 0 {
			continue
		}
		if o[1] > maxTraceHop {
			return fmt.Errorf("prior: node %s: hop %d of pair %d is past the last TTL", n.Addr, o[1], o[0])
		}
		b.obs = append(b.obs, pairObs{hop: o[1], id: id, slot: int32(slot)})
		b.lastHop = max(b.lastHop, o[1])
	}
	return nil
}

// maxTraceHop is the last hop a trace can observe: hop h is probed with
// TTL h+1, and a TTL is one byte. FromService sizes tables by the hops
// a snapshot names, so it refuses any hop past this one.
const maxTraceHop = 254

// groupBySlot orders the observations by slot, then hop, then id, with
// two stable counting sorts (by hop, then by slot) over the scan order,
// which is id order. It sizes hopAddrs to match.
func (b *indexBuilder) groupBySlot() {
	byHop, _ := countingSort(b.obs, b.lastHop+1, func(o pairObs) int { return o.hop })
	b.obs, b.at = countingSort(byHop, len(b.pairs), func(o pairObs) int { return int(o.slot) })
	b.hopAddrs = make([]packet.Addr, len(b.obs))
}

// countingSort returns in stably sorted by key, each key in [0, n), and
// where each key's run starts (n+1 entries, the last len(in)).
func countingSort(in []pairObs, n int, key func(pairObs) int) ([]pairObs, []int) {
	at := make([]int, n+1)
	for _, o := range in {
		at[key(o)+1]++
	}
	for k := 1; k <= n; k++ {
		at[k] += at[k-1]
	}
	out := make([]pairObs, len(in))
	next := slices.Clone(at[:n])
	for _, o := range in {
		out[next[key(o)]] = o
		next[key(o)]++
	}
	return out, at
}

// pair builds slot's hop sets and links from its observations. It
// writes only that pair's prior and its own spans of obs and hopAddrs,
// so pairs build in parallel.
func (b *indexBuilder) pair(slot int) {
	// In (hop, id) order, each hop set comes out sorted (ids ascend with
	// addresses), and a repeated observation sits next to its twin.
	obs := slices.Compact(b.obs[b.at[slot]:b.at[slot+1]])
	if len(obs) == 0 {
		return
	}
	addrs := b.hopAddrs[b.at[slot]:][:len(obs)]
	pp := &b.priors[slot]
	pp.hops = make([][]packet.Addr, obs[len(obs)-1].hop+1)
	// A pair has about as many links as observations.
	edges := make([]uint64, 0, len(obs))
	for prev, start := 0, 0; start < len(obs); {
		end := start + 1
		for end < len(obs) && obs[end].hop == obs[start].hop {
			end++
		}
		for k := start; k < end; k++ {
			addrs[k] = b.addrs[obs[k].id]
		}
		next := addrs[start:end:end]
		pp.hops[obs[start].hop] = next
		if obs[prev].hop == obs[start].hop-1 {
			for _, u := range obs[prev:start] {
				edges = joinEdges(edges, b.addrs[u.id], b.succ[b.succAt[u.id]:b.succAt[u.id+1]], next)
			}
		}
		prev, start = start, end
	}
	// Each hop pair's links come out ascending; an address at several
	// hops of the pair can put them out of order, or repeat one.
	if !slices.IsSorted(edges) {
		slices.Sort(edges)
	}
	pp.edges = slices.Compact(edges)
}

// joinEdges appends the key of every link u→w with w in both succ (u's
// ascending successor list, repeats allowed) and next (a strictly
// ascending hop set).
func joinEdges(edges []uint64, u packet.Addr, succ, next []packet.Addr) []uint64 {
	for i, j := 0, 0; i < len(succ) && j < len(next); {
		switch {
		case succ[i] < next[j]:
			i++
		case succ[i] > next[j]:
			j++
		default:
			edges = append(edges, edgeKey(u, next[j]))
			i++
			j++
		}
	}
	return edges
}
