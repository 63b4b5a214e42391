package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/probe"
	"mmlpt/internal/stats"
	"mmlpt/internal/survey"
	"mmlpt/internal/topo"
)

// Fig4Config scales the measurement-based evaluation (paper: 10,000 pairs
// with diamonds; five tool variants per pair).
type Fig4Config struct {
	Pairs int
	Seed  uint64
}

// Fig4Variant names the tool variants compared against the first MDA run.
type Fig4Variant int

const (
	VariantMDA2 Fig4Variant = iota
	VariantLitePhi2
	VariantLitePhi4
	VariantSingleFlow
	numVariants
)

// String names the variant as in the paper's legends.
func (v Fig4Variant) String() string {
	switch v {
	case VariantMDA2:
		return "Second MDA"
	case VariantLitePhi2:
		return "MDA-Lite 2"
	case VariantLitePhi4:
		return "MDA-Lite 4"
	case VariantSingleFlow:
		return "Single flow ID"
	default:
		return "?"
	}
}

// Fig4Result carries the per-pair ratio samples and the Table 1
// aggregates.
type Fig4Result struct {
	Pairs int
	// VertexRatios etc. hold one ratio (variant/MDA1) per pair, per
	// variant.
	VertexRatios, EdgeRatios, PacketRatios [numVariants][]float64
	// Table1 holds the aggregate-topology ratios: [variant][0]=vertices,
	// [1]=edges, [2]=packets.
	Table1 [numVariants][3]float64
}

type aggTopo struct {
	vertices map[string]bool
	edges    map[string]bool
	packets  uint64
}

func newAggTopo() *aggTopo {
	return &aggTopo{vertices: make(map[string]bool), edges: make(map[string]bool)}
}

func (a *aggTopo) add(pairIdx int, g *topo.Graph, packets uint64) {
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.Addr == topo.StarAddr {
			continue
		}
		a.vertices[v.Addr.String()] = true
		for _, w := range g.Succ(topo.VertexID(i)) {
			wa := g.V(w).Addr
			if wa == topo.StarAddr {
				continue
			}
			a.edges[v.Addr.String()+">"+wa.String()] = true
		}
	}
	a.packets += packets
}

// countGraph returns non-star vertex and edge counts.
func countGraph(g *topo.Graph) (v, e int) {
	for i := range g.Vertices {
		if g.Vertices[i].Addr == topo.StarAddr {
			continue
		}
		v++
		for _, w := range g.Succ(topo.VertexID(i)) {
			if g.V(w).Addr != topo.StarAddr {
				e++
			}
		}
	}
	return v, e
}

// Fig4 reproduces the comparative evaluation: for each diamond-bearing
// pair, run a first MDA (the baseline) and the four variants, and compute
// vertex/edge/packet ratios. It also accumulates the Table 1 aggregate
// topology per variant.
func Fig4(cfg Fig4Config) *Fig4Result {
	if cfg.Pairs == 0 {
		cfg.Pairs = 200
	}
	u := survey.Generate(survey.GenConfig{
		Seed:  cfg.Seed ^ 0xf19f4,
		Pairs: cfg.Pairs * 2, // ~half the pairs have load balancers
	})
	res := &Fig4Result{}
	base := newAggTopo()
	aggs := [numVariants]*aggTopo{newAggTopo(), newAggTopo(), newAggTopo(), newAggTopo()}

	runVariant := func(pair survey.Pair, seed uint64, v Fig4Variant) (*mda.Result, uint64) {
		p := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		p.Retries = 1
		cfgT := mda.Config{Seed: seed}
		var r *mda.Result
		switch v {
		case VariantMDA2:
			r = mda.Trace(p, cfgT)
		case VariantLitePhi2:
			r = mdalite.Trace(p, cfgT, 2)
		case VariantLitePhi4:
			r = mdalite.Trace(p, cfgT, 4)
		case VariantSingleFlow:
			r = mda.TraceSingleFlow(p, cfgT)
		}
		return r, probe.TotalSent(p)
	}

	done := 0
	for i, pair := range u.Pairs {
		if !pair.HasLB {
			continue
		}
		if done >= cfg.Pairs {
			break
		}
		seed := cfg.Seed + uint64(i)*6151
		// First MDA run: the baseline.
		p1 := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		p1.Retries = 1
		r1 := mda.Trace(p1, mda.Config{Seed: seed ^ 0xaaaa})
		if len(r1.Graph.Diamonds()) == 0 {
			continue // evaluation set is pairs for which diamonds were discovered
		}
		done++
		v1, e1 := countGraph(r1.Graph)
		pk1 := probe.TotalSent(p1)
		base.add(i, r1.Graph, pk1)
		for v := Fig4Variant(0); v < numVariants; v++ {
			r, pk := runVariant(pair, seed+uint64(v)+1, v)
			vv, ee := countGraph(r.Graph)
			res.VertexRatios[v] = append(res.VertexRatios[v], ratio(vv, v1))
			res.EdgeRatios[v] = append(res.EdgeRatios[v], ratio(ee, e1))
			res.PacketRatios[v] = append(res.PacketRatios[v], ratio(int(pk), int(pk1)))
			aggs[v].add(i, r.Graph, pk)
		}
	}
	res.Pairs = done
	for v := Fig4Variant(0); v < numVariants; v++ {
		res.Table1[v][0] = ratio(len(aggs[v].vertices), len(base.vertices))
		res.Table1[v][1] = ratio(len(aggs[v].edges), len(base.edges))
		res.Table1[v][2] = ratio(int(aggs[v].packets), int(base.packets))
	}
	return res
}

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}

// SavingsShare returns the fraction of pairs on which the variant saved
// packets versus the first MDA run, and the fraction with ≥40% savings.
func (r *Fig4Result) SavingsShare(v Fig4Variant) (anySaving, saving40 float64) {
	xs := r.PacketRatios[v]
	if len(xs) == 0 {
		return 0, 0
	}
	var a, b int
	for _, x := range xs {
		if x < 1 {
			a++
		}
		if x <= 0.6 {
			b++
		}
	}
	return float64(a) / float64(len(xs)), float64(b) / float64(len(xs))
}

// FormatFig4 renders the three ratio CDFs and Table 1.
func FormatFig4(r *Fig4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 4: ratio CDFs over %d diamond-bearing pairs (alternative : first MDA)\n", r.Pairs)
	metric := []string{"vertex", "edge", "packet"}
	data := [3]*[numVariants][]float64{&r.VertexRatios, &r.EdgeRatios, &r.PacketRatios}
	for m, name := range metric {
		for v := Fig4Variant(0); v < numVariants; v++ {
			cdf := stats.NewCDF((*data[m])[v])
			fmt.Fprintf(&b, "## %s ratio, %s: p10=%.3f p50=%.3f p90=%.3f\n",
				name, v, cdf.Quantile(0.10), cdf.Quantile(0.50), cdf.Quantile(0.90))
		}
	}
	b.WriteString("\n# Table 1: aggregated-topology ratios w.r.t. first MDA\n")
	fmt.Fprintf(&b, "%-15s %9s %9s %9s\n", "variant", "vertices", "edges", "packets")
	paper := map[Fig4Variant][3]float64{
		VariantMDA2:       {0.998, 0.999, 1.005},
		VariantLitePhi2:   {1.002, 1.007, 0.696},
		VariantLitePhi4:   {1.004, 1.005, 0.711},
		VariantSingleFlow: {0.537, 0.201, 0.040},
	}
	for v := Fig4Variant(0); v < numVariants; v++ {
		fmt.Fprintf(&b, "%-15s %9.3f %9.3f %9.3f   (paper: %.3f %.3f %.3f)\n",
			v, r.Table1[v][0], r.Table1[v][1], r.Table1[v][2],
			paper[v][0], paper[v][1], paper[v][2])
	}
	return b.String()
}
