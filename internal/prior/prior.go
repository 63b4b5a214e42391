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
	"hash/fnv"
	"sort"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
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
	// edges holds the recorded links between adjacent covered hops.
	edges map[[2]packet.Addr]bool
	// hints maps (hop, addr) to the flows previously seen landing there.
	hints map[hintKey][]uint16
}

type hintKey struct {
	hop  int
	addr packet.Addr
}

// New returns an empty prior for the pair, covering no hops.
func New(src, dst packet.Addr) *PairPrior {
	return &PairPrior{
		Src: src, Dst: dst,
		edges: make(map[[2]packet.Addr]bool),
		hints: make(map[hintKey][]uint16),
	}
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
	pp.edges[[2]packet.Addr{u, w}] = true
}

// AddLanding records that flow f was observed to land on addr at hop h.
// Landings are flow hints only: they steer the confirmation pass toward
// flows likely to cover the expected set quickly, and stale ones cost at
// most their probes.
func (pp *PairPrior) AddLanding(h int, f uint16, addr packet.Addr) {
	if addr == topo.StarAddr || h < 0 {
		return
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

// NumHops returns the number of hops the prior extends over.
func (pp *PairPrior) NumHops() int { return len(pp.hops) }

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
	return pp.edges[[2]packet.Addr{u, w}]
}

// FlowHints returns the flows previously observed to land on addr at hop
// h, ascending, or nil when none were captured.
func (pp *PairPrior) FlowHints(h int, addr packet.Addr) []uint16 {
	return pp.hints[hintKey{hop: h, addr: addr}]
}

// Width returns the expected width of hop h (0 when uncovered).
func (pp *PairPrior) Width(h int) int {
	if h < 0 || h >= len(pp.hops) {
		return 0
	}
	return len(pp.hops[h])
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
// checkpointed run refuses to resume under a different prior.
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
func FromService(svc *serve.Service) (*Index, error) {
	atlasPairs, err := svc.Pairs()
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]*PairPrior, len(atlasPairs))
	ix := &Index{}
	for _, ap := range atlasPairs {
		src, err := packet.ParseAddr(ap.Src)
		if err != nil {
			return nil, err
		}
		dst, err := packet.ParseAddr(ap.Dst)
		if err != nil {
			return nil, err
		}
		pp := New(src, dst)
		byIndex[ap.Pair] = pp
		ix.add(pp)
	}

	// One pass over the node section gathers both the hop placements and
	// the global successor sets.
	succSet := make(map[[2]packet.Addr]bool)
	err = svc.ForEachNode(func(n *traceio.AtlasNodeV2) error {
		for _, obs := range n.Seen {
			if pp := byIndex[obs[0]]; pp != nil {
				pp.AddHopAddr(obs[1], n.Addr)
			}
		}
		for _, w := range n.Succ {
			succSet[[2]packet.Addr{n.Addr, w}] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, pp := range byIndex {
		pp.normalize()
		for h := 0; h+1 < len(pp.hops); h++ {
			for _, u := range pp.hops[h] {
				for _, w := range pp.hops[h+1] {
					if succSet[[2]packet.Addr{u, w}] {
						pp.AddEdge(u, w)
					}
				}
			}
		}
	}
	return ix, nil
}
