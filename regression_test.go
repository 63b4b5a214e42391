package mmlpt

// Golden regression pins for the batched probing engine. The probe
// counts and graph sizes below were captured from the probe-at-a-time
// implementation; the batched per-round loops in internal/mda and
// internal/mdalite must reproduce them exactly — batching restructures
// when probes are sent, never which probes are sent.

import (
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

type goldenRow struct {
	shape        string
	seed         uint64
	mdaProbes    uint64
	mdaV, mdaE   int
	liteProbes   uint64
	liteV, liteE int
	switched     bool
}

var goldenRows = []goldenRow{
	{"simplest", 1, 41, 5, 5, 29, 5, 5, false},
	{"simplest", 2, 47, 5, 5, 29, 5, 5, false},
	{"simplest", 3, 45, 5, 5, 29, 5, 5, false},
	{"fig1", 1, 94, 9, 11, 53, 9, 11, false},
	{"fig1", 2, 97, 9, 11, 53, 9, 11, false},
	{"fig1", 3, 96, 9, 11, 54, 9, 11, false},
	{"fig1meshed", 1, 129, 9, 15, 169, 9, 15, true},
	{"fig1meshed", 2, 141, 9, 15, 181, 9, 15, true},
	{"fig1meshed", 3, 134, 9, 15, 178, 9, 15, true},
	{"maxlen2", 1, 612, 31, 57, 245, 31, 57, false},
	{"maxlen2", 2, 631, 31, 57, 244, 31, 57, false},
	{"maxlen2", 3, 689, 31, 57, 244, 31, 57, false},
	{"symmetric", 1, 258, 17, 25, 132, 17, 25, false},
	{"symmetric", 2, 241, 17, 25, 120, 17, 25, false},
	{"symmetric", 3, 233, 17, 25, 118, 17, 25, false},
	{"asymmetric", 1, 737, 53, 70, 839, 53, 70, true},
	{"asymmetric", 2, 808, 53, 70, 853, 53, 70, true},
	{"asymmetric", 3, 875, 53, 70, 911, 53, 69, true},
	{"meshed48", 1, 1710, 79, 183, 1748, 79, 184, true},
	{"meshed48", 2, 1782, 79, 185, 1863, 79, 183, true},
	{"meshed48", 3, 1620, 79, 185, 1765, 79, 185, true},
}

func countEdges(g *topo.Graph) int {
	n := 0
	for i := range g.Vertices {
		n += len(g.Succ(topo.VertexID(i)))
	}
	return n
}

func TestBatchedEngineMatchesSerialGoldens(t *testing.T) {
	t.Parallel()
	for _, row := range goldenRows {
		row := row
		net, _ := fakeroute.BuildScenario(row.seed, benchSrc, benchDst, fakeroute.Shapes[row.shape])
		p := probe.NewSimProber(net, benchSrc, benchDst)
		p.Retries = 0
		r := mda.Trace(p, mda.Config{Seed: row.seed})
		if r.Probes != row.mdaProbes || len(r.Graph.Vertices) != row.mdaV || countEdges(r.Graph) != row.mdaE {
			t.Errorf("%s seed=%d MDA: probes=%d v=%d e=%d, want %d/%d/%d",
				row.shape, row.seed, r.Probes, len(r.Graph.Vertices), countEdges(r.Graph),
				row.mdaProbes, row.mdaV, row.mdaE)
		}
		net2, _ := fakeroute.BuildScenario(row.seed, benchSrc, benchDst, fakeroute.Shapes[row.shape])
		p2 := probe.NewSimProber(net2, benchSrc, benchDst)
		p2.Retries = 0
		r2 := mdalite.Trace(p2, mda.Config{Seed: row.seed}, 2)
		if r2.Probes != row.liteProbes || len(r2.Graph.Vertices) != row.liteV ||
			countEdges(r2.Graph) != row.liteE || r2.SwitchedToMDA != row.switched {
			t.Errorf("%s seed=%d MDA-Lite: probes=%d v=%d e=%d switched=%v, want %d/%d/%d/%v",
				row.shape, row.seed, r2.Probes, len(r2.Graph.Vertices), countEdges(r2.Graph),
				r2.SwitchedToMDA, row.liteProbes, row.liteV, row.liteE, row.switched)
		}
	}
}
