package experiments

// The experiments' pins. Each covers an output a rewrite of the alias
// layer or of the survey renderers must reproduce bit for bit:
//
//   - every round's partition (addresses, outcome, cumulative probes) and
//     the router graph of a multilevel trace over the load-balanced pairs
//     of the router-survey bench universe;
//   - the exact sequence of probes those traces send, traceroute probes as
//     (flow, TTL) and echoes as (address, sequence number);
//   - the Fig 5 rows and every Table2Result field at Pairs 10, Seed 1;
//   - every Sec 5 renderer's output over cmd/paperfig's scale-1 surveys.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/nprand"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/pin"
	"mmlpt/internal/probe"
)

// probeLog writes down every probe a tracer sends, in order; a batch
// adds a length marker ahead of its specs.
type probeLog struct {
	probe.Prober
	w io.Writer
}

func (l probeLog) Probe(flow uint16, ttl int) *packet.Reply {
	fmt.Fprintf(l.w, "p %d %d\n", flow, ttl)
	return l.Prober.Probe(flow, ttl)
}

func (l probeLog) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	fmt.Fprintf(l.w, "batch %d\n", len(specs))
	for _, s := range specs {
		fmt.Fprintf(l.w, "p %d %d\n", s.FlowID, s.TTL)
	}
	return l.Prober.ProbeBatch(specs)
}

func (l probeLog) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	fmt.Fprintf(l.w, "e %s %d\n", addr, seq)
	return l.Prober.Echo(addr, seq)
}

func (l probeLog) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	fmt.Fprintf(l.w, "echo batch %d\n", len(specs))
	for _, s := range specs {
		fmt.Fprintf(l.w, "e %s %d\n", s.Addr, s.Seq)
	}
	return l.Prober.EchoBatch(specs)
}

// TestAliasRoundsPinned traces the load-balanced pairs of the
// router-survey bench universe (world seed 3, 14 pairs, trace seed 1 as
// the bench's default -seed) exactly as survey.Run would, and pins every
// round's partition and the probe sequence.
func TestAliasRoundsPinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("ten alias rounds over the bench universe are slow")
	}
	u, rc, err := PlanSurvey("router", SurveyConfig{Pairs: 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rc.Trace.Seed = 1
	var parts, probes bytes.Buffer
	traced := 0
	for idx, pair := range u.Pairs {
		if !pair.HasLB {
			continue
		}
		traced++
		sim := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		sim.Retries = rc.Retries
		fmt.Fprintf(&probes, "pair %d\n", idx)
		tc := rc.Trace
		tc.Seed = nprand.IndexedSeed(rc.Trace.Seed, idx)
		res := core.Trace(probeLog{sim, &probes}, core.Options{
			Trace: tc, Phi: rc.Phi, Rounds: rc.Rounds,
		})
		fmt.Fprintf(&parts, "pair %d trace %d alias %d\n", idx, res.TraceProbes, res.AliasProbes)
		for round, snap := range res.Rounds {
			fmt.Fprintf(&parts, "round %d probes %d\n", round, snap.Probes)
			for _, s := range snap.Sets {
				fmt.Fprintf(&parts, "%v %v\n", s.Outcome, s.Addrs)
			}
		}
		fmt.Fprintf(&parts, "router graph\n%s", res.RouterGraph)
	}
	if traced != 6 {
		t.Fatalf("traced %d load-balanced pairs, want 6", traced)
	}
	pin.Check(t, "experiments/alias-rounds/partitions", parts.Bytes())
	pin.Check(t, "experiments/alias-rounds/probes", probes.Bytes())
}

// TestObservationSeqsUnique checks the invariant alias.MBTVerdict's merge
// relies on: no two samples of one Observations share a Seq, across all
// addresses and both families. It traces the load-balanced pairs of the
// router-survey bench universe as TestAliasRoundsPinned does, and runs
// Table 2's direct resolver over the first of them. Every reply an
// Observations records comes from a vertex of the trace's graph (for the
// direct resolver, from a candidate), so walking those addresses visits
// every sample.
func TestObservationSeqsUnique(t *testing.T) {
	t.Parallel()
	u, rc, err := PlanSurvey("router", SurveyConfig{Pairs: 14, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rc.Trace.Seed = 1
	direct := false
	for idx, pair := range u.Pairs {
		if !pair.HasLB {
			continue
		}
		sim := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		sim.Retries = rc.Retries
		tc := rc.Trace
		tc.Seed = nprand.IndexedSeed(rc.Trace.Seed, idx)
		res := core.Trace(sim, core.Options{
			Trace: tc, Phi: rc.Phi, Rounds: rc.Rounds,
		})
		var addrs []packet.Addr
		for _, v := range res.IP.Graph.Vertices {
			addrs = append(addrs, v.Addr)
		}
		ind, dir := checkSeqsUnique(t, fmt.Sprintf("pair %d", idx), res.Obs, addrs)
		if ind == 0 || dir == 0 {
			t.Errorf("pair %d: %d indirect and %d direct samples, want both families", idx, ind, dir)
		}
		if direct {
			continue
		}
		// Table 2's MIDAR-style resolver, one Resolve per candidate group.
		direct = true
		groups := core.CandidateGroups(res.IP.Graph, pair.Dst)
		dp := probe.NewSimProber(u.Net, pair.Src, pair.Dst)
		dp.Retries = 1
		dirRes := alias.NewResolver(dp, obs.New())
		dirRes.Direct = true
		dirRes.Rounds = rc.Rounds
		var cands []packet.Addr
		for _, g := range groups {
			dirRes.Resolve([][]packet.Addr{g})
			cands = append(cands, g...)
		}
		if _, dir := checkSeqsUnique(t, fmt.Sprintf("pair %d direct", idx), dirRes.Obs, cands); dir == 0 {
			t.Errorf("pair %d: the direct resolver recorded no samples", idx)
		}
	}
	if !direct {
		t.Fatal("no load-balanced pair")
	}
}

// checkSeqsUnique reports every Seq that two samples of o share, walking
// the observations of addrs (duplicates visited once), and returns the
// number of indirect and direct samples seen.
func checkSeqsUnique(t *testing.T, name string, o *obs.Observations, addrs []packet.Addr) (indirect, direct int) {
	t.Helper()
	owner := make(map[uint64]packet.Addr)
	visited := make(map[packet.Addr]bool)
	for _, a := range addrs {
		ao := o.Get(a)
		if ao == nil || visited[a] {
			continue
		}
		visited[a] = true
		for _, family := range [][]obs.Sample{ao.Indirect, ao.Direct} {
			for _, s := range family {
				if prev, ok := owner[s.Seq]; ok {
					t.Errorf("%s: Seq %d sampled from both %s and %s", name, s.Seq, prev, a)
				}
				owner[s.Seq] = a
			}
		}
		indirect += len(ao.Indirect)
		direct += len(ao.Direct)
	}
	return indirect, direct
}

// TestFig5Pinned pins every Fig 5 row.
func TestFig5Pinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("ten alias rounds over 10 pairs are slow")
	}
	pin.Check(t, "experiments/fig5", fmt.Appendf(nil, "%+v", Fig5(Fig5Config{Pairs: 10, Seed: 1})))
}

// TestTable2Pinned pins every Table2Result field: the cells, the
// router counts and both cause maps (fmt prints maps in key order).
func TestTable2Pinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("ten alias rounds over 10 pairs, both families, are slow")
	}
	pin.Check(t, "experiments/table2", fmt.Appendf(nil, "%+v", *Table2(Table2Config{Pairs: 10, Seed: 1})))
}

// TestSurveyArtifactsPinned pins every Sec 5 renderer's output over
// cmd/paperfig's scale-1 surveys (IP: 400 pairs, seed 1; router: 120
// pairs, seed 1, 10 alias rounds).
func TestSurveyArtifactsPinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paperfig's scale-1 surveys are slow")
	}
	ip, err := IPSurvey(SurveyConfig{Pairs: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	router, err := RouterSurvey(SurveyConfig{Pairs: 120, Seed: 1, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig2":   FormatFig2(ip),
		"fig7":   FormatFig7(ip),
		"fig8":   FormatFig8(ip),
		"fig9":   FormatFig9(ip),
		"fig10":  FormatFig10(ip),
		"fig11":  FormatFig11(ip),
		"fig12":  FormatFig12(router),
		"table3": FormatTable3(router),
		"fig13":  FormatFig13(router),
		"fig14":  FormatFig14(router),
	} {
		pin.Check(t, "experiments/artifacts/"+name, []byte(out))
	}
}
