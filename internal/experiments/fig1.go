// Package experiments contains one driver per table and figure of the
// paper's evaluation, shared by cmd/paperfig (which prints the series) and
// bench_test.go (which runs them under testing.B). Each driver returns
// structured data so tests can assert the paper's qualitative shape.
package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/stats"
	"mmlpt/internal/topo"
)

var (
	expSrc = packet.MustParseAddr("192.0.2.1")
	expDst = packet.MustParseAddr("198.51.100.77")
)

// Fig1Row is the probe accounting for one algorithm on one diamond.
type Fig1Row struct {
	Topology  string
	Algorithm string
	// Floor is the paper's analytic probe floor (e.g. 11·n1 = 99).
	Floor int
	// MeanProbes and CI are measured over Runs executions.
	MeanProbes float64
	CI         float64
	FullV      float64 // mean fraction of vertices discovered
	FullE      float64 // mean fraction of edges discovered
}

// Fig1Config scales the experiment.
type Fig1Config struct {
	Runs int
	Seed uint64
}

// Fig1 reproduces the Sec 2.1/2.3.1 worked example: with the Veitch
// Table 1 stopping points (n1=9, n2=17, n4=33), the MDA needs 99+δ probes
// on the unmeshed 1-4-2-1 diamond and 163+δ′ on the meshed one, while the
// MDA-Lite needs n4+n2+2·n1 = 68 probes on either.
func Fig1(cfg Fig1Config) []Fig1Row {
	if cfg.Runs == 0 {
		cfg.Runs = 30
	}
	nk := mda.VeitchTable1(64)
	type variant struct {
		name  string
		build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph
		algo  string
		floor int
	}
	n1, n2, n4 := nk[1], nk[2], nk[4]
	variants := []variant{
		{"unmeshed", fakeroute.Fig1UnmeshedDiamond, "mda", 11 * n1},
		{"meshed", fakeroute.Fig1MeshedDiamond, "mda", 8*n2 + 3*n1},
		{"unmeshed", fakeroute.Fig1UnmeshedDiamond, "mda-lite", n4 + n2 + 2*n1},
		{"meshed", fakeroute.Fig1MeshedDiamond, "mda-lite", n4 + n2 + 2*n1},
	}
	var rows []Fig1Row
	for _, v := range variants {
		var probes, vs, es []float64
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + uint64(run)*7919
			net, path := fakeroute.BuildScenario(seed, expSrc, expDst, v.build)
			p := probe.NewSimProber(net, expSrc, expDst)
			p.Retries = 0
			var res *mda.Result
			if v.algo == "mda" {
				res = mda.Trace(p, mda.Config{Seed: seed, Stop: nk})
			} else {
				// The MDA-Lite's analytic floor covers discovery of the
				// diamond itself; the meshing test and a potential
				// switch-over add to it.
				res = mda.TraceLite(p, mda.Config{Seed: seed, Stop: nk}, 2)
			}
			vf, ef := topo.SubgraphCoverage(res.Graph, path.Graph)
			probes = append(probes, float64(res.Probes))
			vs = append(vs, vf)
			es = append(es, ef)
		}
		mean, ci := stats.MeanCI(probes, 1.96)
		rows = append(rows, Fig1Row{
			Topology: v.name, Algorithm: v.algo, Floor: v.floor,
			MeanProbes: mean, CI: ci,
			FullV: stats.Mean(vs), FullE: stats.Mean(es),
		})
	}
	return rows
}

// FormatFig1 renders the rows as the worked-example table.
func FormatFig1(rows []Fig1Row) string {
	var b strings.Builder
	b.WriteString("# Fig 1 / Sec 2.1+2.3.1 probe accounting (Veitch Table 1 stopping points)\n")
	b.WriteString("# topology algorithm floor mean_probes ci95 vfrac efrac\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-8s %4d %8.1f %6.1f %.3f %.3f\n",
			r.Topology, r.Algorithm, r.Floor, r.MeanProbes, r.CI, r.FullV, r.FullE)
	}
	return b.String()
}
