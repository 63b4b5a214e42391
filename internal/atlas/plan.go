package atlas

import (
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// plan is everything a snapshot write fixes before the first block
// streams out: the exact totals the header commits to, the partition
// fences, and the small sections (pairs, routers, diamonds). WriteTo
// builds one from the live atlas; Compact builds one from a node-less
// atlas that folded its inputs' small sections plus the node totals
// its counting pass found. Either way the small sections come out of
// the same Atlas methods in the same canonical order, so the two
// writers cannot drift apart.
type plan struct {
	nodes, edges int
	mins         []packet.Addr // per-partition minimum fence; len = partitions

	pairs    []traceio.AtlasPair
	diamonds []traceio.AtlasDiamond

	routers       []traceio.AtlasRouter // canonical order
	routersByPart [][]int               // partition -> indices into routers
	routerOf      map[packet.Addr]packet.Addr
}

// newPlan freezes src's small sections in canonical order and places
// each router component in the partition owning its representative.
// mins holds the first address of every partition of the merged node
// order (empty for a snapshot without nodes, which still has one
// partition).
func newPlan(src *Atlas, nodes, edges int, mins []packet.Addr) *plan {
	if len(mins) == 0 {
		mins = make([]packet.Addr, 1)
	}
	p := &plan{
		nodes: nodes, edges: edges, mins: mins,
		pairs:    src.sortedPairs(),
		diamonds: src.Census(),
	}
	groups := src.Routers()
	p.routers = make([]traceio.AtlasRouter, len(groups))
	p.routerOf = make(map[packet.Addr]packet.Addr)
	p.routersByPart = make([][]int, len(mins))
	for i, g := range groups {
		p.routers[i] = traceio.AtlasRouter{Addrs: g}
		for _, addr := range g {
			p.routerOf[addr] = g[0]
		}
		part := traceio.AtlasShardForAddr(mins, g[0])
		p.routersByPart[part] = append(p.routersByPart[part], i)
	}
	return p
}

// parts is the number of shard blocks the snapshot will hold.
func (p *plan) parts() int { return len(p.mins) }

// spec is the stream encoder's view of the plan.
func (p *plan) spec() traceio.AtlasStreamSpec {
	return traceio.AtlasStreamSpec{
		Pairs: p.pairs, Nodes: p.nodes, Edges: p.edges,
		Routers: len(p.routers), Shards: p.parts(), Diamonds: p.diamonds,
	}
}

// startBlock returns partition part's block with the header counts and
// node capacity the plan fixes; the caller appends the nodes.
func (p *plan) startBlock(part int) *traceio.AtlasShard {
	lo, hi := traceio.AtlasBlockOf(part, p.nodes)
	blk := &traceio.AtlasShard{
		Header: traceio.AtlasShardHeader{Shard: part, Nodes: hi - lo, Routers: len(p.routersByPart[part])},
	}
	if hi > lo {
		blk.Nodes = make([]traceio.AtlasNodeV2, 0, hi-lo)
	}
	return blk
}

// finishBlock sets the fences from the appended nodes and attaches the
// partition's routers.
func (p *plan) finishBlock(blk *traceio.AtlasShard) {
	if n := len(blk.Nodes); n > 0 {
		blk.Header.Min = blk.Nodes[0].Addr
		blk.Header.Max = blk.Nodes[n-1].Addr
	}
	for _, ri := range p.routersByPart[blk.Header.Shard] {
		blk.Routers = append(blk.Routers, p.routers[ri])
	}
}
