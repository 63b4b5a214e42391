package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/stats"
	"mmlpt/internal/topo"
)

// Fig3Config scales the simulation comparison.
type Fig3Config struct {
	Runs int // paper: 30
	Seed uint64
}

// Fig3Point is one averaged point of a discovery curve.
type Fig3Point struct {
	// X is the packet count normalized to the MDA's total for the run.
	X float64
	// V and E are mean fractions of vertices and edges discovered, with
	// 95% CI half-widths.
	V, VErr float64
	E, EErr float64
}

// Fig3Curve is one algorithm's averaged discovery curve on one topology.
type Fig3Curve struct {
	Topology  string
	Algorithm string
	Points    []Fig3Point
	// MeanPackets is the mean total packets; MeanFrac the mean of
	// (algorithm packets / MDA packets) per run.
	MeanPackets float64
	MeanFrac    float64
	// SwitchRate is the fraction of runs where the MDA-Lite switched.
	SwitchRate float64
}

// fig3Topologies are the four Sec 2.4.1 simulation topologies.
var fig3Topologies = []struct {
	name  string
	build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph
}{
	{"max-length-2", fakeroute.MaxLength2Diamond},
	{"symmetric", fakeroute.SymmetricDiamond},
	{"asymmetric", fakeroute.AsymmetricDiamond},
	{"meshed", fakeroute.MeshedDiamond48},
}

// traceProgress runs one algorithm once, recording (packets, vFrac,
// eFrac) after every probe.
func traceProgress(seed uint64, build func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph, lite bool, phi int) (curve [][3]float64, total uint64, switched bool) {
	net, path := fakeroute.BuildScenario(seed, expSrc, expDst, build)
	sim := probe.NewSimProber(net, expSrc, expDst)
	sim.Retries = 0
	rec := &probe.Recorder{Prober: sim}
	s := mda.NewSession(rec, mda.Config{Seed: seed})
	rec.OnProbe = func(sent uint64, _ *packet.Reply) {
		vf, ef := topo.SubgraphCoverage(s.Graph(), path.Graph)
		curve = append(curve, [3]float64{float64(sent), vf, ef})
	}
	var res *mda.Result
	if lite {
		res = s.RunLite(phi)
	} else {
		res = s.RunMDA()
	}
	// The per-probe callback fires before its round's replies are folded
	// into the graph (with batched rounds, up to a whole n_k round can be
	// in flight), so close the curve with a terminal point reflecting the
	// completed trace.
	vf, ef := topo.SubgraphCoverage(s.Graph(), path.Graph)
	curve = append(curve, [3]float64{float64(res.Probes), vf, ef})
	return curve, res.Probes, res.SwitchedToMDA
}

// Fig3 reproduces the simulation comparison: vertex and edge discovery as
// a function of probes sent, MDA-Lite (phi=2) versus MDA, 30 runs per
// topology, x normalized to each run's MDA total.
func Fig3(cfg Fig3Config) []Fig3Curve {
	if cfg.Runs == 0 {
		cfg.Runs = 30
	}
	grid := make([]float64, 0, 20)
	for x := 0.05; x <= 1.0001; x += 0.05 {
		grid = append(grid, x)
	}
	var out []Fig3Curve
	for _, topoSpec := range fig3Topologies {
		type run struct {
			curve    [][3]float64
			total    uint64
			mdaTotal uint64
			switched bool
		}
		runsMDA := make([]run, cfg.Runs)
		runsLite := make([]run, cfg.Runs)
		for i := 0; i < cfg.Runs; i++ {
			seed := cfg.Seed + uint64(i)*104729
			cM, tM, _ := traceProgress(seed, topoSpec.build, false, mda.DefaultPhi)
			cL, tL, sw := traceProgress(seed+1, topoSpec.build, true, mda.DefaultPhi)
			runsMDA[i] = run{curve: cM, total: tM, mdaTotal: tM}
			runsLite[i] = run{curve: cL, total: tL, mdaTotal: tM, switched: sw}
		}
		for _, algo := range []string{"mda", "mda-lite"} {
			runs := runsMDA
			if algo == "mda-lite" {
				runs = runsLite
			}
			curve := Fig3Curve{Topology: topoSpec.name, Algorithm: algo}
			var totals, fracs []float64
			switches := 0
			for _, r := range runs {
				totals = append(totals, float64(r.total))
				fracs = append(fracs, float64(r.total)/float64(r.mdaTotal))
				if r.switched {
					switches++
				}
			}
			curve.MeanPackets = stats.Mean(totals)
			curve.MeanFrac = stats.Mean(fracs)
			curve.SwitchRate = float64(switches) / float64(len(runs))
			for _, x := range grid {
				var vs, es []float64
				for _, r := range runs {
					budget := x * float64(r.mdaTotal)
					v, e := sampleCurve(r.curve, budget)
					vs = append(vs, v)
					es = append(es, e)
				}
				vm, vci := stats.MeanCI(vs, 1.96)
				em, eci := stats.MeanCI(es, 1.96)
				curve.Points = append(curve.Points, Fig3Point{X: x, V: vm, VErr: vci, E: em, EErr: eci})
			}
			out = append(out, curve)
		}
	}
	return out
}

// sampleCurve returns the (vFrac, eFrac) achieved by the time `budget`
// packets had been sent (the last point at or below the budget).
func sampleCurve(curve [][3]float64, budget float64) (v, e float64) {
	i := sort.Search(len(curve), func(i int) bool { return curve[i][0] > budget })
	if i == 0 {
		return 0, 0
	}
	return curve[i-1][1], curve[i-1][2]
}

// FormatFig3 renders the curves.
func FormatFig3(curves []Fig3Curve) string {
	var b strings.Builder
	b.WriteString("# Fig 3: discovery vs normalized packets (x v verr e eerr)\n")
	for _, c := range curves {
		fmt.Fprintf(&b, "## %s %s  mean_packets=%.1f frac_of_mda=%.2f switch_rate=%.2f\n",
			c.Topology, c.Algorithm, c.MeanPackets, c.MeanFrac, c.SwitchRate)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%.2f %.4f %.4f %.4f %.4f\n", p.X, p.V, p.VErr, p.E, p.EErr)
		}
	}
	return b.String()
}
