package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/mda"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
)

// Table2Config scales the indirect-vs-direct comparison.
type Table2Config struct {
	Pairs  int
	Seed   uint64
	rounds int // 0 = 10; in-package tests shrink it for speed
}

// Table2Result holds the 3×3 outcome matrix (portions of the union of
// address sets identified as routers by either tool) plus cause
// breakdowns.
type Table2Result struct {
	// Cell[indirect][direct] with Outcome indices Accepted/Rejected/Unable.
	Cell [3][3]float64
	// Sets is the union size (paper: 4798).
	Sets int
	// IndirectRouters and DirectRouters count each tool's accepted sets.
	IndirectRouters, DirectRouters int
	// UnableCausesIndirect tallies why MMLPT was unable on sets the
	// direct tool accepted; UnableCausesDirect vice versa.
	UnableCausesIndirect map[alias.UnableCause]int
	UnableCausesDirect   map[alias.UnableCause]int
}

func outcomeIdx(o alias.Outcome) int {
	switch o {
	case alias.Accepted:
		return 0
	case alias.Rejected:
		return 1
	default:
		return 2
	}
}

// Table2 reproduces the Sec 4.2 comparison: address sets identified as
// routers by indirect probing (MMLPT) or direct probing (a MIDAR-style
// Echo resolver), classified by the other tool as accept / reject /
// unable.
func Table2(cfg Table2Config) *Table2Result {
	if cfg.Pairs == 0 {
		cfg.Pairs = 100
	}
	if cfg.rounds == 0 {
		cfg.rounds = 10
	}
	u := survey.Generate(survey.GenConfig{Seed: cfg.Seed ^ 0x7ab2e2, Pairs: cfg.Pairs * 2})
	res := &Table2Result{
		UnableCausesIndirect: make(map[alias.UnableCause]int),
		UnableCausesDirect:   make(map[alias.UnableCause]int),
	}

	setKey := func(addrs []packet.Addr) string {
		s := append([]packet.Addr(nil), addrs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		var b strings.Builder
		for _, a := range s {
			b.WriteString(a.String())
			b.WriteByte('|')
		}
		return b.String()
	}

	type unionSet struct {
		addrs    []packet.Addr
		indirect alias.Outcome
		direct   alias.Outcome
		indRes   *alias.Resolver
		dirRes   *alias.Resolver
	}
	var union []unionSet

	done := 0
	for i, pair := range u.Pairs {
		if !pair.HasLB {
			continue
		}
		if done >= cfg.Pairs {
			break
		}
		done++
		// Indirect (MMLPT) pipeline.
		p := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		p.Retries = 1
		ml := core.Trace(p, core.Options{
			Trace:  mda.Config{Seed: cfg.Seed + uint64(i)*53},
			Rounds: cfg.rounds,
		})
		indRes := alias.NewResolver(p, ml.Obs)

		// Direct (MIDAR-style) pipeline over the same diamond addresses.
		groups := core.CandidateGroups(ml.IP.Graph, pair.Dst)
		dp := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		dp.Retries = 1
		dirRes := alias.NewResolver(dp, obs.New())
		dirRes.Direct = true
		dirRes.Rounds = cfg.rounds
		var dirSets []alias.Set
		for _, g := range groups {
			rr := dirRes.Resolve([][]packet.Addr{g})
			dirSets = append(dirSets, rr[len(rr)-1].Sets...)
		}

		seen := make(map[string]bool)
		addSet := func(addrs []packet.Addr) {
			if len(addrs) < 2 {
				return
			}
			k := setKey(addrs)
			if seen[k] {
				return
			}
			seen[k] = true
			union = append(union, unionSet{
				addrs:  addrs,
				indRes: indRes, dirRes: dirRes,
			})
		}
		for _, s := range alias.RouterSets(ml.Sets) {
			addSet(s.Addrs)
		}
		for _, s := range alias.RouterSets(dirSets) {
			addSet(s.Addrs)
		}
	}

	// Classify every union set by both tools.
	for i := range union {
		s := &union[i]
		s.indirect = s.indRes.ClassifySet(s.addrs)
		s.direct = s.dirRes.ClassifySet(s.addrs)
		if s.indirect == alias.Accepted {
			res.IndirectRouters++
		}
		if s.direct == alias.Accepted {
			res.DirectRouters++
		}
		if s.indirect == alias.Accepted || s.direct == alias.Accepted {
			res.Cell[outcomeIdx(s.indirect)][outcomeIdx(s.direct)]++
			res.Sets++
		}
		if s.direct == alias.Accepted && s.indirect == alias.Unable {
			for _, a := range s.addrs {
				if ok, cause := s.indRes.AddrUsable(a); !ok {
					res.UnableCausesIndirect[cause]++
					break
				}
			}
		}
		if s.indirect == alias.Accepted && s.direct == alias.Unable {
			for _, a := range s.addrs {
				if ok, cause := s.dirRes.AddrUsable(a); !ok {
					res.UnableCausesDirect[cause]++
					break
				}
			}
		}
	}
	if res.Sets > 0 {
		for i := range res.Cell {
			for j := range res.Cell[i] {
				res.Cell[i][j] /= float64(res.Sets)
			}
		}
	}
	return res
}

// FormatTable2 renders the matrix in the paper's layout.
func FormatTable2(r *Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Table 2: %d address sets identified as routers (indirect=%d, direct=%d)\n",
		r.Sets, r.IndirectRouters, r.DirectRouters)
	rows := []string{"Accept Indirect", "Reject Indirect", "Unable Indirect"}
	fmt.Fprintf(&b, "%-16s %14s %14s %14s\n", "", "Accept Direct", "Reject Direct", "Unable Direct")
	for i, name := range rows {
		fmt.Fprintf(&b, "%-16s %14.3f %14.3f %14.3f\n", name, r.Cell[i][0], r.Cell[i][1], r.Cell[i][2])
	}
	b.WriteString("# paper:            0.365/0.144/0.203 down the Accept-Direct column;\n")
	b.WriteString("#                   0.005 Accept-Indirect/Reject-Direct; 0.283 Accept-Indirect/Unable-Direct\n")
	writeCauses(&b, "indirect", r.UnableCausesIndirect)
	writeCauses(&b, "direct", r.UnableCausesDirect)
	return b.String()
}

// writeCauses renders one cause tally as a comment line, causes in
// UnableCause order.
func writeCauses(b *strings.Builder, family string, causes map[alias.UnableCause]int) {
	if len(causes) == 0 {
		return
	}
	order := make([]alias.UnableCause, 0, len(causes))
	for c := range causes {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Fprintf(b, "# %s-unable causes:", family)
	for _, c := range order {
		fmt.Fprintf(b, " %s=%d", c, causes[c])
	}
	b.WriteByte('\n')
}
