// Package core implements Multilevel MDA-Lite Paris Traceroute (MMLPT,
// Sec 4): an MDA-Lite multipath trace with alias resolution integrated
// into the tool, producing a router-level view of the multipath route in
// addition to the IP-level view.
package core

import (
	"sort"

	"mmlpt/internal/alias"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// Options parametrizes a multilevel trace.
type Options struct {
	// Trace is the underlying trace configuration.
	Trace mda.Config
	// Phi is the MDA-Lite meshing-test budget (default 2).
	Phi int
	// Rounds is the number of alias-resolution probing rounds after the
	// free Round 0 (paper: 10).
	Rounds int
	// ProbesPerRound is the MBT sample count per address per round
	// (paper: 30).
	ProbesPerRound int
}

func (o *Options) fill() {
	if o.Phi < mdalite.DefaultPhi {
		o.Phi = mdalite.DefaultPhi
	}
	if o.Rounds == 0 {
		o.Rounds = 10
	}
	if o.ProbesPerRound == 0 {
		o.ProbesPerRound = 30
	}
}

// RoundSnapshot captures the alias state after one resolution round,
// aggregated over every hop of the trace.
type RoundSnapshot struct {
	Round int
	// Sets is the partition of every multi-address hop's addresses.
	Sets []alias.Set
	// Probes is the cumulative alias-resolution probe count.
	Probes uint64
}

// Result is the outcome of a multilevel trace.
type Result struct {
	// IP is the interface-level trace result.
	IP *mda.Result
	// Obs holds the collected observations.
	Obs *obs.Observations
	// Rounds holds one snapshot per resolution round (Rounds+1 entries).
	Rounds []RoundSnapshot
	// Sets is the final alias partition (the last round's).
	Sets []alias.Set
	// RouterGraph is the IP graph with same-hop aliases collapsed.
	RouterGraph *topo.Graph
	// RouterOf maps each address to its router representative (the
	// lowest address of its alias set; addresses outside any accepted
	// set represent themselves).
	RouterOf map[packet.Addr]packet.Addr
	// TraceProbes and AliasProbes split the packet budget.
	TraceProbes, AliasProbes uint64
}

// Trace runs the full MMLPT pipeline: MDA-Lite trace, then round-based
// alias resolution over every multi-address hop.
func Trace(p probe.Prober, opt Options) *Result {
	opt.fill()
	o := opt.Trace.Obs
	if o == nil {
		o = obs.New()
		opt.Trace.Obs = o
	}
	ip := mdalite.Trace(p, opt.Trace, opt.Phi)
	res := &Result{IP: ip, Obs: o, TraceProbes: ip.Probes}
	groups := CandidateGroups(ip.Graph, p.Dst())
	r := alias.NewResolver(p, o)
	r.Rounds = opt.Rounds
	r.ProbesPerRound = opt.ProbesPerRound

	snapshot := func(round int, probes uint64) {
		var sets []alias.Set
		for _, g := range groups {
			sets = append(sets, r.Partition(g)...)
		}
		res.Rounds = append(res.Rounds, RoundSnapshot{Round: round, Sets: sets, Probes: probes})
	}

	var sent uint64
	snapshot(0, 0)
	for round := 1; round <= opt.Rounds; round++ {
		for _, g := range groups {
			if round == 1 {
				sent += r.FingerprintRound(g)
			}
			sent += r.ProbeRound(g)
		}
		snapshot(round, sent)
	}
	res.AliasProbes = sent
	res.Sets = res.Rounds[len(res.Rounds)-1].Sets
	res.RouterOf = RouterRepresentatives(res.Sets)
	res.RouterGraph = CollapseRouters(ip.Graph, res.RouterOf)
	return res
}

// CandidateGroups returns, per hop with two or more responsive addresses,
// the candidate alias group (Sec 4.1: "the aliases of a given router are
// to be found among the addresses found at a given hop"). The destination
// and stars are excluded.
func CandidateGroups(g *topo.Graph, dst packet.Addr) [][]packet.Addr {
	var out [][]packet.Addr
	for h := 0; h < g.NumHops(); h++ {
		var addrs []packet.Addr
		for _, id := range g.Hop(h) {
			a := g.V(id).Addr
			if a == topo.StarAddr || a == dst {
				continue
			}
			addrs = append(addrs, a)
		}
		if len(addrs) >= 2 {
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			out = append(out, addrs)
		}
	}
	return out
}

// RouterRepresentatives maps every address of every accepted multi-address
// set to the set's lowest address.
func RouterRepresentatives(sets []alias.Set) map[packet.Addr]packet.Addr {
	rep := make(map[packet.Addr]packet.Addr)
	for _, s := range sets {
		if s.Outcome != alias.Accepted || len(s.Addrs) < 2 {
			continue
		}
		lo := s.Addrs[0]
		for _, a := range s.Addrs[1:] {
			if a < lo {
				lo = a
			}
		}
		for _, a := range s.Addrs {
			rep[a] = lo
		}
	}
	return rep
}

// CollapseRouters builds the router-level graph: vertices at the same hop
// whose addresses share a representative merge into one vertex labelled by
// the representative. Addresses without a representative map to
// themselves; stars are preserved.
func CollapseRouters(g *topo.Graph, rep map[packet.Addr]packet.Addr) *topo.Graph {
	out := topo.New()
	idMap := make(map[topo.VertexID]topo.VertexID, len(g.Vertices))
	for h := 0; h < g.NumHops(); h++ {
		byRep := make(map[packet.Addr]topo.VertexID)
		for _, id := range g.Hop(h) {
			a := g.V(id).Addr
			if a == topo.StarAddr {
				idMap[id] = out.AddVertex(h, topo.StarAddr)
				continue
			}
			r, ok := rep[a]
			if !ok {
				r = a
			}
			nv, seen := byRep[r]
			if !seen {
				nv = out.AddVertex(h, r)
				byRep[r] = nv
			}
			idMap[id] = nv
		}
	}
	for i := range g.Vertices {
		u := topo.VertexID(i)
		for _, w := range g.Succ(u) {
			out.AddEdge(idMap[u], idMap[w])
		}
	}
	return out
}

// DiamondEffect classifies what alias resolution did to an IP-level
// diamond (Table 3).
type DiamondEffect int

const (
	// EffectNoChange: no aliases were resolved within the diamond.
	EffectNoChange DiamondEffect = iota
	// EffectSingleSmaller: the diamond resolved into one smaller diamond.
	EffectSingleSmaller
	// EffectMultipleSmaller: the diamond resolved into a series of
	// smaller diamonds.
	EffectMultipleSmaller
	// EffectOnePath: the diamond disappeared into a straight router path.
	EffectOnePath
)

// String renders the effect as the Table 3 row label.
func (e DiamondEffect) String() string {
	switch e {
	case EffectSingleSmaller:
		return "single smaller diamond"
	case EffectMultipleSmaller:
		return "multiple smaller diamonds"
	case EffectOnePath:
		return "one path (no diamond)"
	default:
		return "no change"
	}
}

// ClassifyDiamond determines the effect of alias resolution on the IP
// diamond d, given the router-level graph produced by CollapseRouters on
// d's parent graph (hop indices are preserved by the collapse).
func ClassifyDiamond(d *topo.Diamond, router *topo.Graph) DiamondEffect {
	changed := false
	for h := d.DivHop; h <= d.ConvHop; h++ {
		if router.Width(h) != d.Graph().Width(h) {
			changed = true
			break
		}
	}
	if !changed {
		return EffectNoChange
	}
	// Count diamonds inside the hop span of the router graph.
	count := 0
	h := d.DivHop
	for h < d.ConvHop {
		if router.Width(h) == 1 {
			j := h + 1
			for j <= d.ConvHop && router.Width(j) > 1 {
				j++
			}
			if j <= d.ConvHop && j > h+1 && router.Width(j) == 1 {
				count++
				h = j
				continue
			}
		}
		h++
	}
	switch count {
	case 0:
		return EffectOnePath
	case 1:
		return EffectSingleSmaller
	default:
		return EffectMultipleSmaller
	}
}

// AggregateRouters merges interface sets from multiple traces through
// transitive closure: two sets sharing at least one address merge
// (Sec 5.2's aggregated router view). Input and output sets are address
// slices.
func AggregateRouters(sets [][]packet.Addr) [][]packet.Addr {
	parent := make(map[packet.Addr]packet.Addr)
	var find func(a packet.Addr) packet.Addr
	find = func(a packet.Addr) packet.Addr {
		p, ok := parent[a]
		if !ok {
			parent[a] = a
			return a
		}
		if p == a {
			return a
		}
		root := find(p)
		parent[a] = root
		return root
	}
	union := func(a, b packet.Addr) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, s := range sets {
		for _, a := range s[1:] {
			union(s[0], a)
		}
	}
	groups := make(map[packet.Addr][]packet.Addr)
	for a := range parent {
		r := find(a)
		groups[r] = append(groups[r], a)
	}
	out := make([][]packet.Addr, 0, len(groups))
	var roots []packet.Addr
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		g := groups[r]
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	return out
}
