package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
)

// Fig5Config scales the alias-resolution round evaluation.
type Fig5Config struct {
	Pairs  int
	Seed   uint64
	rounds int // 0 = the paper's 10; in-package tests shrink it for speed
}

// Fig5Row is the aggregate state after one round.
type Fig5Row struct {
	Round int
	// Precision and Recall of the round's alias pairs versus the final
	// round's (the paper's reference), aggregated over all traces.
	Precision, Recall float64
	// TruthPrecision and TruthRecall versus the simulator's ground truth
	// (unavailable to the paper; a bonus of reproducing on Fakeroute).
	TruthPrecision, TruthRecall float64
	// ProbeRatio is (trace + alias probes through this round) / trace
	// probes: Fig 5's right axis.
	ProbeRatio float64
}

// Fig5 reproduces the round-by-round alias resolution evaluation: Round 0
// uses only trace observations, Round 1 adds the fingerprint probe and 30
// MBT samples per address, and each later round adds 30 more.
func Fig5(cfg Fig5Config) []Fig5Row {
	if cfg.Pairs == 0 {
		cfg.Pairs = 100
	}
	if cfg.rounds == 0 {
		cfg.rounds = 10
	}
	u := survey.Generate(survey.GenConfig{Seed: cfg.Seed ^ 0xf195, Pairs: cfg.Pairs * 2})

	type perRound struct {
		pred  map[[2]packet.Addr]bool
		probe uint64
	}
	rounds := make([]perRound, cfg.rounds+1)
	for i := range rounds {
		rounds[i].pred = make(map[[2]packet.Addr]bool)
	}
	ref := make(map[[2]packet.Addr]bool)
	truth := make(map[[2]packet.Addr]bool)
	var traceProbes uint64

	done := 0
	for i, pair := range u.Pairs {
		if !pair.HasLB {
			continue
		}
		if done >= cfg.Pairs {
			break
		}
		done++
		p := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		p.Retries = 1
		res := core.Trace(p, core.Options{
			Trace:  mda.Config{Seed: cfg.Seed + uint64(i)*31},
			Rounds: cfg.rounds,
		})
		traceProbes += res.TraceProbes
		for r, snap := range res.Rounds {
			for pr := range alias.AliasPairs(snap.Sets) {
				rounds[r].pred[pr] = true
			}
			rounds[r].probe += snap.Probes
		}
		final := res.Rounds[len(res.Rounds)-1]
		for pr := range alias.AliasPairs(final.Sets) {
			ref[pr] = true
		}
		// Ground truth pairs among the trace's candidate addresses.
		routerOf := make(map[packet.Addr]int)
		var addrs []packet.Addr
		for _, g := range core.CandidateGroups(res.IP.Graph, pair.Dst) {
			for _, a := range g {
				addrs = append(addrs, a)
				routerOf[a] = u.RouterOf[a]
			}
		}
		for pr := range alias.GroundTruthPairs(routerOf, addrs) {
			truth[pr] = true
		}
	}

	out := make([]Fig5Row, 0, cfg.rounds+1)
	for r := 0; r <= cfg.rounds; r++ {
		p, rec := alias.PrecisionRecall(rounds[r].pred, ref)
		tp, tr := alias.PrecisionRecall(rounds[r].pred, truth)
		ratio := 1.0
		if traceProbes > 0 {
			ratio = float64(traceProbes+rounds[r].probe) / float64(traceProbes)
		}
		out = append(out, Fig5Row{
			Round: r, Precision: p, Recall: rec,
			TruthPrecision: tp, TruthRecall: tr,
			ProbeRatio: ratio,
		})
	}
	return out
}

// FormatFig5 renders the rows.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("# Fig 5: alias resolution over rounds (reference = round 10 sets)\n")
	b.WriteString("# round precision recall truth_precision truth_recall probe_ratio\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %9.3f %6.3f %15.3f %12.3f %11.3f\n",
			r.Round, r.Precision, r.Recall, r.TruthPrecision, r.TruthRecall, r.ProbeRatio)
	}
	return b.String()
}
