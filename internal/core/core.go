// Package core implements Multilevel MDA-Lite Paris Traceroute (MMLPT,
// Sec 4): an MDA-Lite multipath trace with alias resolution integrated
// into the tool, producing a router-level view of the multipath route in
// addition to the IP-level view.
package core

import (
	"sort"

	"mmlpt/internal/alias"
	"mmlpt/internal/mda"
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
	if o.Rounds == 0 {
		o.Rounds = 10
	}
	if o.ProbesPerRound == 0 {
		o.ProbesPerRound = 30
	}
}

// Result is the outcome of a multilevel trace.
type Result struct {
	// IP is the interface-level trace result.
	IP *mda.Result
	// Obs holds the collected observations.
	Obs *obs.Observations
	// Rounds holds one snapshot per resolution round (Rounds+1 entries),
	// each the partition of every multi-address hop's addresses.
	Rounds []alias.RoundResult
	// Sets is the final alias partition (the last round's).
	Sets []alias.Set
	// RouterGraph is the IP graph with same-hop aliases collapsed.
	RouterGraph *topo.Graph
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
	ip := mda.TraceLite(p, opt.Trace, opt.Phi)
	r := alias.NewResolver(p, o)
	r.Rounds = opt.Rounds
	r.ProbesPerRound = opt.ProbesPerRound
	rounds := r.Resolve(CandidateGroups(ip.Graph, p.Dst()))
	last := rounds[len(rounds)-1]
	return &Result{
		IP: ip, Obs: o, Rounds: rounds, Sets: last.Sets,
		RouterGraph: routerGraph(ip.Graph, last.Sets),
		TraceProbes: ip.Probes, AliasProbes: last.Probes,
	}
}

// routerGraph collapses the accepted alias sets of g: each router is
// labelled by alias.Union's representative, its lowest address — the rule
// the atlas applies across traces.
func routerGraph(g *topo.Graph, sets []alias.Set) *topo.Graph {
	u := alias.NewUnion()
	for _, s := range alias.RouterSets(sets) {
		u.AddSet(s.Addrs)
	}
	return CollapseRouters(g, u.Find)
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

// CollapseRouters builds the router-level graph: vertices at the same hop
// whose addresses share a representative (rep maps an unaliased address to
// itself) merge into one vertex labelled by the representative; stars are
// preserved.
func CollapseRouters(g *topo.Graph, rep func(packet.Addr) packet.Addr) *topo.Graph {
	out := topo.New()
	idMap := make([]topo.VertexID, len(g.Vertices))
	for h := 0; h < g.NumHops(); h++ {
		byRep := make(map[packet.Addr]topo.VertexID)
		for _, id := range g.Hop(h) {
			a := g.V(id).Addr
			if a == topo.StarAddr {
				idMap[id] = out.AddVertex(h, topo.StarAddr)
				continue
			}
			r := rep(a)
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
