// Package survey reproduces the paper's Sec 5 surveys over a synthetic
// Internet: a population of (source, destination) paths threaded through a
// shared library of load-balanced "diamond" structures, served by a
// Fakeroute network.
//
// The generator is calibrated to the paper's reported population shapes
// (the repro substitution documented in DESIGN.md): roughly half of paths
// cross at least one per-flow load balancer; about half of diamonds have
// maximum length 2; ~89% of diamonds have zero width asymmetry; a minority
// are meshed, mostly with a meshed-hop ratio under 0.4; two "giant core"
// structures of widths 48 and 56 are reachable from many ingress points;
// and routers mostly expose 2 interfaces to a vantage point, with one
// >50-interface outlier inside the width-56 core.
package survey

import (
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// GenConfig controls the synthetic Internet; its shape is calibrated by
// the constants below.
type GenConfig struct {
	Seed uint64
	// Pairs is the number of (source, destination) measurements.
	Pairs int
	// starHopProb overrides the constant (0 keeps it): a test's seam.
	starHopProb float64
}

// The generator's calibration to the paper's Sec 5 population: properties
// of the reproduction, not choices a caller makes.
const (
	// sources is the number of vantage points (paper: 35).
	sources = 5
	// lbFraction is the portion of paths crossing at least one load
	// balancer (paper: 155,030/294,832 ≈ 0.526).
	lbFraction = 0.526
	// meanDiamondsPerLBPath is the mean diamond count on LB paths
	// (paper: 220,193/155,030 ≈ 1.42).
	meanDiamondsPerLBPath = 1.42
	// starHopProb is the probability a chain hop is non-responsive.
	starHopProb = 0.01
	// aliasHopProb is the probability a multi-vertex diamond hop has its
	// interfaces grouped onto multi-interface routers.
	aliasHopProb = 0.40
)

func (c *GenConfig) fill() {
	if c.Pairs == 0 {
		c.Pairs = 1000
	}
	if c.starHopProb == 0 {
		c.starHopProb = starHopProb
	}
}

// Pair is one measurement target.
type Pair struct {
	Src, Dst packet.Addr
	// HasLB records whether the ground-truth path crosses a load
	// balancer.
	HasLB bool
}

// Template is one distinct diamond structure, shared across paths.
type Template struct {
	// Frag is the fragment graph: hop 0 the divergence vertex, last hop
	// the convergence vertex, both single.
	Frag *topo.Graph
	// Weight is the reuse popularity.
	Weight float64
}

// Universe is the generated internet.
type Universe struct {
	Cfg       GenConfig
	Net       *fakeroute.Network
	Pairs     []Pair
	Templates []*Template
	// RouterOf is the ground-truth interface→router mapping.
	RouterOf map[packet.Addr]int

	// trunk memoizes shared chain addresses per (source, hop, variant):
	// paths from one vantage point share most of their non-diamond hops,
	// as real paths through a provider's core do. Without this sharing,
	// per-path chain vertices would dominate the aggregated topology and
	// distort the Table 1 single-flow ratios.
	trunk map[trunkKey]packet.Addr

	// routerRng drives router configuration and alias grouping on a
	// stream independent of topology-shape sampling, so tuning grouping
	// probabilities does not reshuffle the diamond population.
	routerRng *nprand.Source
}

type trunkKey struct {
	src     int
	hop     int
	variant int
}

// Generate builds the synthetic Internet.
func Generate(cfg GenConfig) *Universe {
	cfg.fill()
	rng := nprand.New(cfg.Seed ^ 0x53555256)
	u := &Universe{
		Cfg:       cfg,
		Net:       fakeroute.NewNetwork(cfg.Seed ^ 0xfa6e),
		RouterOf:  make(map[packet.Addr]int),
		trunk:     make(map[trunkKey]packet.Addr),
		routerRng: nprand.New(cfg.Seed ^ 0x726f7574),
	}
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))

	u.buildTemplates(rng, alloc)
	u.buildPaths(rng, alloc)
	return u
}

func (u *Universe) buildTemplates(rng *nprand.Source, alloc *fakeroute.AddrAllocator) {
	n := max(u.Cfg.Pairs/5, 24) // distinct diamonds in the library
	// The two giant shared cores come first with elevated popularity
	// (they are encountered from many ingress points, producing the
	// measured-width peaks at 48 and 56, but remain a few percent of
	// encounters as in Fig 10).
	u.addTemplate(u.giant48(alloc), 4)
	u.addTemplate(u.giant56(alloc), 3)
	u.addTemplate(u.giant96(alloc), 2)
	for len(u.Templates) < n {
		t, meshed := u.sampleTemplate(rng, alloc)
		// Zipf-flavoured popularity: early templates are hot cores seen
		// from many ingress points, the tail is seen once or twice.
		rank := float64(len(u.Templates))
		w := 4 / (1 + rank/8)
		// Meshed diamonds are ~31% of the paper's distinct diamonds but
		// only ~15% of measured encounters: structurally common, rarely
		// on popular paths. Down-weight their popularity accordingly.
		if meshed {
			w *= 0.55
		}
		u.addTemplate(t, w)
	}
}

func (u *Universe) addTemplate(frag *topo.Graph, weight float64) {
	u.Templates = append(u.Templates, &Template{Frag: frag, Weight: weight})
}

// sampleTemplate draws one diamond shape from the calibrated mix and
// reports whether it is meshed (the whole fragment is one diamond).
func (u *Universe) sampleTemplate(rng *nprand.Source, alloc *fakeroute.AddrAllocator) (*topo.Graph, bool) {
	b := fakeroute.NewPathBuilder(alloc)
	switch rng.Categorical([]float64{
		0.20, // simplest 2×2
		0.13, // length-2, width 3..9
		0.07, // length-2, wide 10..32
		0.24, // length 3..5, uniform, unmeshed
		0.08, // long (6..14), narrow
		0.24, // meshed (the paper's distinct-diamond survey is ~31% meshed)
		0.07, // asymmetric (unmeshed)
	}) {
	case 0:
		b.Spread(2)
	case 1:
		b.Spread(3 + rng.Intn(7))
	case 2:
		b.Spread(10 + rng.Intn(23))
	case 3:
		w := 2 + rng.Intn(5)
		b.Spread(w)
		extra := 1 + rng.Intn(3) // total multi hops 2..4 → length 3..5
		for i := 0; i < extra; i++ {
			if rng.Float64() < 0.5 && w*2 <= 16 {
				b.Spread(2)
				w *= 2
			} else {
				b.Converge(w) // one-to-one
			}
		}
		b.Converge(smallestDivisor(w))
	case 4:
		w := 2 + rng.Intn(3)
		b.Spread(w)
		hops := 4 + rng.Intn(9)
		for i := 0; i < hops; i++ {
			b.Converge(w)
		}
	case 5:
		w := 3 + rng.Intn(6)
		b.Spread(w)
		// The meshed population splits into densely meshed pairs (full
		// bipartite: trivially detectable) and sparsely meshed pairs with
		// only one or two degree-2 vertices, whose Eq. (1) miss
		// probability at phi=2 is 0.5 or 0.25 — the tail of Fig 2.
		switch rng.Categorical([]float64{0.55, 0.10, 0.35}) {
		case 0:
			b.Full(w + rng.Intn(3))
		case 1:
			b.CrossLink(1)
		case 2:
			b.CrossLink(2 + rng.Intn(2))
		}
		pads := 1 + rng.Intn(4)
		cur := len(b.Current())
		for i := 0; i < pads; i++ {
			b.Converge(cur)
		}
	case 6:
		// Asymmetric but mostly mildly so: the bulk of width-asymmetric
		// diamonds in the paper's survey show a maximum probability
		// difference of 0.25 or less (Fig 8); a minority are strongly
		// skewed.
		if rng.Float64() < 0.7 {
			w := 3 + rng.Intn(3)
			b.Spread(w)
			counts := make([]int, w)
			for i := range counts {
				counts[i] = 2
			}
			counts[w-1] = 1 // one narrow sibling: small probability gap
			b.SpreadUneven(counts)
		} else {
			b.Spread(2)
			b.SpreadUneven([]int{2 + rng.Intn(3), 1})
		}
	}
	g := b.Converge(1).Graph()
	u.registerFragment(g)
	ds := g.Diamonds()
	return g, len(ds) > 0 && ds[0].Meshed()
}

func smallestDivisor(w int) int {
	for d := 2; d <= w; d++ {
		if w%d == 0 {
			return w / d
		}
	}
	return 1
}

// giant48 is the width-48 shared core: a maximum-length-2 structure whose
// interfaces are all on distinct routers, so it survives alias resolution
// (Fig 13: the 48 peak remains).
func (u *Universe) giant48(alloc *fakeroute.AddrAllocator) *topo.Graph {
	g := fakeroute.NewPathBuilder(alloc).Spread(48).Converge(1).Graph()
	for i := range g.Vertices {
		u.assignRouter(u.Net.NewRouter(), g.Vertices[i].Addr, nil)
	}
	return g
}

// giant96 is the width-96 shared core: the widest load-balanced hop the
// paper reports ("load balancing practices on a scale — up to 96
// interfaces at a single hop — never before described"). Like giant48 it
// is alias-free.
func (u *Universe) giant96(alloc *fakeroute.AddrAllocator) *topo.Graph {
	g := fakeroute.NewPathBuilder(alloc).Spread(96).Converge(1).Graph()
	for i := range g.Vertices {
		u.assignRouter(u.Net.NewRouter(), g.Vertices[i].Addr, nil)
	}
	return g
}

// giant56 is the width-56 shared core: three 56-wide hops where the middle
// hop's interfaces all belong to one >50-interface router (the paper's
// single giant router), so alias resolution collapses the middle hop to
// width 1 and the diamond resolves into several smaller diamonds (Fig 13:
// the 56 peak disappears; Table 3's "multiple smaller diamonds" row).
func (u *Universe) giant56(alloc *fakeroute.AddrAllocator) *topo.Graph {
	rng := u.routerRng
	b := fakeroute.NewPathBuilder(alloc).
		Spread(56).   // hop 1: width 56
		Converge(56). // hop 2: width 56 (one-to-one)
		Converge(56). // hop 3: width 56 (one-to-one)
		Converge(1)
	g := b.Graph()
	// Hop 1: routers of size 2 (some 4), shared counters.
	u.groupHop(rng, g, 1, []float64{0, 0, 0.8, 0, 0.2})
	// Hop 2: one giant router owning all 56 interfaces.
	giant := u.Net.NewRouter()
	for _, id := range g.Hop(2) {
		u.assignRouter(giant, g.V(id).Addr, nil)
	}
	// Hop 3: routers of sizes up to 49.
	ids := g.Hop(3)
	big := u.Net.NewRouter()
	for i := 0; i < 49; i++ {
		u.assignRouter(big, g.V(ids[i]).Addr, nil)
	}
	rest := u.Net.NewRouter()
	for i := 49; i < len(ids); i++ {
		u.assignRouter(rest, g.V(ids[i]).Addr, nil)
	}
	// Divergence and convergence points.
	u.assignRouter(u.Net.NewRouter(), g.V(g.Hop(0)[0]).Addr, nil)
	u.assignRouter(u.Net.NewRouter(), g.V(g.Hop(g.NumHops() - 1)[0]).Addr, nil)
	return g
}

// registerFragment assigns routers and interfaces for a fragment's
// vertices: multi-vertex hops are alias-grouped with probability
// aliasHopProb; everything else gets one router per interface. A fraction
// of wide hops sit in MPLS tunnels, with per-router constant labels (some
// flapping, which disqualifies the label for alias resolution).
func (u *Universe) registerFragment(g *topo.Graph) {
	rng := u.routerRng
	label := uint32(16 + rng.Intn(1<<18))
	for h := 0; h < g.NumHops(); h++ {
		ids := g.Hop(h)
		mpls := len(ids) >= 2 && rng.Float64() < 0.15
		// A width-2 hop can only collapse to a single router (Table 3's
		// "one path"), never shrink; grouping probability is therefore
		// width-dependent so the Table 3 mix matches the measured one.
		pAlias := aliasHopProb
		if len(ids) == 2 {
			pAlias = aliasHopProb * 0.5
		}
		if len(ids) >= 2 && rng.Float64() < pAlias {
			// Router sizes: mostly 2, tail to 8 (Fig 12: 68% size 2, 97%
			// ≤10 at the distinct-router level).
			u.groupHop(rng, g, h, []float64{0, 0, 0.72, 0.14, 0.06, 0.04, 0.02, 0.01, 0.01})
		} else {
			for _, id := range ids {
				a := g.V(id).Addr
				if a != topo.StarAddr {
					u.assignRouter(u.Net.NewRouter(), a, rng)
				}
			}
		}
		if mpls {
			u.labelHop(rng, g, h, &label)
		}
	}
}

// labelHop puts hop h's interfaces into an MPLS tunnel: interfaces of the
// same router share a label, different routers carry different labels,
// and a fifth of tunnels flap their labels over time.
func (u *Universe) labelHop(rng *nprand.Source, g *topo.Graph, h int, label *uint32) {
	flaps := rng.Float64() < 0.20
	byRouter := make(map[int]uint32)
	for _, id := range g.Hop(h) {
		a := g.V(id).Addr
		ifc := u.Net.Iface(a)
		if ifc == nil {
			continue
		}
		l, ok := byRouter[ifc.Router.ID]
		if !ok {
			*label += 7
			l = *label
			byRouter[ifc.Router.ID] = l
		}
		ifc.MPLSLabel = l
		ifc.LabelFlaps = flaps
	}
}

// groupHop partitions hop h's interfaces into routers with sizes drawn
// from sizeWeights (index = size).
func (u *Universe) groupHop(rng *nprand.Source, g *topo.Graph, h int, sizeWeights []float64) {
	ids := append([]topo.VertexID(nil), g.Hop(h)...)
	if rng != nil {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	i := 0
	for i < len(ids) {
		size := 2
		if rng != nil {
			size = rng.Categorical(sizeWeights)
		}
		if size > len(ids)-i {
			size = len(ids) - i
		}
		if size < 1 {
			size = 1
		}
		r := u.Net.NewRouter()
		u.configureRouter(r, rng)
		for k := 0; k < size; k++ {
			u.assignRouter(r, g.V(ids[i+k]).Addr, nil)
		}
		i += size
	}
}

// assignRouter creates the interface and records ground truth. When rng is
// non-nil the router's behaviour is also randomized.
func (u *Universe) assignRouter(r *fakeroute.Router, a packet.Addr, rng *nprand.Source) {
	if a == topo.StarAddr {
		return
	}
	if u.Net.Iface(a) != nil {
		return
	}
	if rng != nil {
		u.configureRouter(r, rng)
	}
	u.Net.AddIface(r, a)
	u.RouterOf[a] = r.ID
}

// configureRouter draws the router's counter architecture, fingerprint and
// echo behaviour from the calibrated mix behind Table 2.
func (u *Universe) configureRouter(r *fakeroute.Router, rng *nprand.Source) {
	switch rng.Categorical([]float64{0.38, 0.12, 0.16, 0.03, 0.09, 0.22}) {
	case 0:
		r.IPID = fakeroute.IPIDShared
	case 1:
		r.IPID = fakeroute.IPIDPerInterface
	case 2:
		r.IPID = fakeroute.IPIDConstantZero
	case 3:
		r.IPID = fakeroute.IPIDRandom
	case 4:
		r.IPID = fakeroute.IPIDEchoCopy
	case 5:
		r.IPID = fakeroute.IPIDIndirectZero
	}
	r.Velocity = 0.05 + rng.Float64()*0.5
	if rng.Float64() < 0.18 {
		r.RespondsToEcho = false
	}
	switch rng.Categorical([]float64{0.7, 0.2, 0.1}) {
	case 0:
		r.InitialTTLExceeded, r.InitialTTLEcho = 255, 255
	case 1:
		r.InitialTTLExceeded, r.InitialTTLEcho = 64, 64
	case 2:
		r.InitialTTLExceeded, r.InitialTTLEcho = 255, 64
	}
}

// buildPaths threads each measurement pair through chain hops and
// templates.
func (u *Universe) buildPaths(rng *nprand.Source, alloc *fakeroute.AddrAllocator) {
	srcBase := packet.AddrFrom4(192, 0, 2, 1)
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	weights := make([]float64, len(u.Templates))
	for i, t := range u.Templates {
		weights[i] = t.Weight
	}
	for i := 0; i < u.Cfg.Pairs; i++ {
		srcIdx := i % sources
		src := packet.Addr(uint32(srcBase) + uint32(srcIdx))
		dst := dstAlloc.Next()
		hasLB := rng.Float64() < lbFraction
		g := u.buildPathGraph(rng, alloc, weights, srcIdx, dst, hasLB)
		u.Net.AddPath(src, dst, g)
		u.Pairs = append(u.Pairs, Pair{Src: src, Dst: dst, HasLB: hasLB})
	}
}

// chainAddr returns a chain-hop address: usually a shared per-source
// trunk interface, occasionally a fresh one (paths diverge eventually).
func (u *Universe) chainAddr(rng *nprand.Source, alloc *fakeroute.AddrAllocator, srcIdx, hop int) packet.Addr {
	if rng.Float64() < 0.8 {
		k := trunkKey{src: srcIdx, hop: hop, variant: rng.Intn(3)}
		if a, ok := u.trunk[k]; ok {
			return a
		}
		a := alloc.Next()
		u.assignRouter(u.Net.NewRouter(), a, u.routerRng)
		u.trunk[k] = a
		return a
	}
	a := alloc.Next()
	u.assignRouter(u.Net.NewRouter(), a, u.routerRng)
	return a
}

// buildPathGraph assembles one path: short chains around 0..n embedded
// diamond templates.
func (u *Universe) buildPathGraph(rng *nprand.Source, alloc *fakeroute.AddrAllocator, weights []float64, srcIdx int, dst packet.Addr, hasLB bool) *topo.Graph {
	g := topo.New()
	hop := 0
	var tail topo.VertexID // single current vertex

	appendChain := func(n int) {
		for i := 0; i < n; i++ {
			var v topo.VertexID
			if rng.Float64() < u.Cfg.starHopProb {
				v = g.AddVertex(hop, topo.StarAddr)
			} else {
				v = g.AddVertex(hop, u.chainAddr(rng, alloc, srcIdx, hop))
			}
			if hop > 0 {
				g.AddEdge(tail, v)
			}
			tail = v
			hop++
		}
	}

	// Chain hops are unique per path while diamond structures are shared
	// across paths, so the chain length directly controls how much of the
	// aggregate topology a single-flow trace can see (Table 1's
	// single-flow row). Short chains keep the diamond interiors dominant,
	// as the paper's measured aggregate was.
	appendChain(1 + rng.Intn(2))
	if hasLB {
		// The continuation probability is a float64 division at run
		// time: the constant expression, evaluated exactly, rounds the
		// other way in its last bit.
		mean := meanDiamondsPerLBPath
		count := 1
		for rng.Float64() < (mean-1)/mean && count < 4 {
			count++
		}
		used := map[int]bool{}
		for d := 0; d < count; d++ {
			ti := rng.Categorical(weights)
			if used[ti] {
				continue
			}
			used[ti] = true
			tail = u.embed(g, u.Templates[ti].Frag, tail, &hop)
			appendChain(1)
		}
		appendChain(rng.Intn(2))
	} else {
		appendChain(3 + rng.Intn(4))
	}
	// Destination.
	v := g.AddVertex(hop, dst)
	g.AddEdge(tail, v)
	return g
}

// embed copies a fragment into g. The fragment's hop 0 vertex becomes the
// next hop after tail (with an edge from tail); the fragment's final
// vertex is returned as the new tail.
func (u *Universe) embed(g *topo.Graph, frag *topo.Graph, tail topo.VertexID, hop *int) topo.VertexID {
	idMap := make([]topo.VertexID, len(frag.Vertices))
	base := *hop
	for h := 0; h < frag.NumHops(); h++ {
		for _, id := range frag.Hop(h) {
			idMap[id] = g.AddVertex(base+h, frag.V(id).Addr)
		}
	}
	for i := range frag.Vertices {
		fu := topo.VertexID(i)
		for _, fw := range frag.Succ(fu) {
			g.AddEdge(idMap[fu], idMap[fw])
		}
	}
	div := idMap[frag.Hop(0)[0]]
	g.AddEdge(tail, div)
	last := frag.NumHops() - 1
	*hop = base + last + 1
	return idMap[frag.Hop(last)[0]]
}
