// Package groundtruth evaluates multipath tracing algorithms against
// simulated topologies with known ground truth, reproducing the paper's
// validation methodology (Sec 3) as a regression harness: each scenario
// draws random diamond meshes from a parameterized generator
// (fakeroute.GenerateMultipath), runs the full MDA and the MDA-Lite over
// identical networks, diffs each discovered topology against the
// generator's graph (topo.Diff), and scores accuracy (vertex/edge/
// diamond recall and precision, false links) against cost (probes sent,
// probe savings ratio).
//
// The scored records are byte-stable JSONL (traceio.EvalRecord), so a
// committed run of the scenario suite acts as a golden baseline: CI
// re-runs the suite on every change and fails when any metric drifts
// beyond tolerance (CompareGolden) — an accuracy regression in the
// tracing algorithms becomes a test failure, not archaeology.
package groundtruth

import (
	"hash/fnv"
	"strings"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// Scenario is one evaluation setting: a generator configuration plus the
// network conditions the trace runs under.
type Scenario struct {
	// Name identifies the scenario in records, goldens and CLI selection.
	Name string
	// Description is the one-line rationale cmd/eval -list prints.
	Description string
	// Gen parameterizes the random topology generator.
	Gen fakeroute.GenSpec
	// Pairs is how many (source, destination) routes are generated per
	// seed (default 2). Metrics aggregate over all of them.
	Pairs int
	// LossProb drops each reply independently with this probability.
	LossProb float64
	// RateLimit/RatePeriod, when RateLimit > 0, apply a token-bucket
	// reply rate limit to every router.
	RateLimit  int
	RatePeriod uint64
	// Retries is the prober's re-send count on no-reply (default 2).
	Retries int
	// FlowBased marks scenarios whose load balancers are all flow-based
	// (per-flow or per-destination with no per-packet component): the
	// regime the MDA's assumptions — and the paper's accuracy claim for
	// the MDA-Lite — apply to.
	FlowBased bool
	// RetraceChurn is the per-pair probability that the route changes
	// between the prior-building pass and the re-trace (BuildRetrace
	// installs a regenerated path as the pair's live topology). It only
	// affects the prior-seeded evaluation; Build ignores it. Churn
	// scenarios must keep Gen.LB zero: the alternate path shares the
	// original's dispatch-mode map.
	RetraceChurn float64
	// RetraceChurnAt is the trace-clock tick at which a churned pair's
	// route swaps (0 = changed before the re-trace starts, i.e. a stale
	// prior; >0 = mid-trace flap).
	RetraceChurnAt uint64
}

func (sc *Scenario) fill() {
	if sc.Pairs == 0 {
		sc.Pairs = 2
	}
	if sc.Retries == 0 {
		sc.Retries = 2
	}
}

// Instance is one built scenario: the network plus the ground truth per
// pair.
type Instance struct {
	Net   *fakeroute.Network
	Pairs []InstancePair
}

// InstancePair is one route of an instance.
type InstancePair struct {
	Src, Dst packet.Addr
	Truth    *topo.Graph
}

// Build constructs the scenario's network for one derived seed. Equal
// seeds build byte-identical ground truth, which is how the harness
// hands the MDA and the MDA-Lite each a fresh network with the same
// topology and the same reply behavior.
func (sc Scenario) Build(seed uint64) *Instance {
	return sc.build(seed, false)
}

// BuildRetrace constructs the network a re-trace pass runs over: the
// same ground truth as Build(seed), except that pairs selected by the
// RetraceChurn draw get a freshly generated route installed as their
// live topology, in force from tick RetraceChurnAt. Truth for a churned
// pair is the new route — what a re-survey should discover. With
// RetraceChurn zero this is exactly Build.
func (sc Scenario) BuildRetrace(seed uint64) *Instance {
	return sc.build(seed, true)
}

func (sc Scenario) build(seed uint64, retrace bool) *Instance {
	sc.fill()
	net := fakeroute.NewNetwork(seed)
	net.LossProb = sc.LossProb
	rng := nprand.New(seed ^ 0x67656e)
	churnRng := nprand.New(seed ^ 0x636875726e)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	inst := &Instance{Net: net}
	srcBase := packet.AddrFrom4(192, 0, 2, 1)
	dstAlloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(203, 0, 113, 1))
	churn := retrace && sc.RetraceChurn > 0
	for i := 0; i < sc.Pairs; i++ {
		src := packet.Addr(uint32(srcBase) + uint32(i))
		dst := dstAlloc.Next()
		gp := fakeroute.GenerateMultipath(rng.Fork(uint64(i)), alloc, dst, sc.Gen)
		p := net.AddGeneratedPath(src, dst, gp)
		truth := gp.Graph
		if churn {
			// The churn draw and the alternate route come from a stream
			// independent of generation, so the un-churned pairs' ground
			// truth is byte-identical to Build's. The shared allocator
			// keeps the new route's addresses fresh: a stale prior meets
			// vertices it has never seen.
			crng := churnRng.Fork(uint64(i))
			if crng.Float64() < sc.RetraceChurn {
				alt := fakeroute.GenerateMultipath(crng, alloc, dst, sc.Gen)
				net.EnsureIfaces(alt.Graph, dst)
				p.Alt = alt.Graph
				p.AltAt = sc.RetraceChurnAt
				truth = alt.Graph
			}
		}
		inst.Pairs = append(inst.Pairs, InstancePair{Src: src, Dst: dst, Truth: truth})
	}
	if sc.RateLimit > 0 {
		for _, r := range net.Routers() {
			r.RateLimit = sc.RateLimit
			r.RatePeriod = sc.RatePeriod
		}
	}
	return inst
}

// scenarioSeed derives the instance seed for (base, scenario, index):
// per-scenario streams, so adding a scenario never reshuffles the ground
// truth of the others.
func scenarioSeed(base uint64, name string, idx int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return nprand.IndexedSeed(base^h.Sum64(), idx)
}

// Suite returns the committed evaluation scenarios: the flow-based
// family the paper's accuracy/cost claim is about, plus adversarial and
// noisy settings that pin how the algorithms degrade when the MDA
// assumptions are violated. TestDefaultRunMatchesGolden and CI's
// eval-golden job hold every column of every scenario to
// testdata/eval_golden.jsonl.
func Suite() []Scenario {
	return []Scenario{
		{
			// Narrow uniform diamonds: the common case (~89% of the
			// paper's surveyed diamonds have zero width asymmetry).
			// MDA-Lite should match MDA's topology at a probe discount.
			Name:        "flow-narrow",
			Description: "narrow uniform diamonds, the common zero-asymmetry case",
			Gen:         fakeroute.GenSpec{Diamonds: 2, WidthMin: 2, WidthMax: 3, LenMin: 2, LenMax: 3, UniformWidth: true},
			Pairs:       3,
			FlowBased:   true,
		},
		{
			// Varying interior widths: no meshing, but the width changes
			// are real non-uniformity — the detector should fire and the
			// MDA-Lite switch over, trading its discount for safety.
			Name:        "flow-grow",
			Description: "varying interior widths fire the non-uniformity detector",
			Gen:         fakeroute.GenSpec{Diamonds: 2, WidthMin: 2, WidthMax: 4, LenMin: 3, LenMax: 4},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Wide length-2 diamonds: where hop-level probing saves the
			// most over per-vertex probing (the paper's headline case).
			Name:        "flow-wide",
			Description: "wide length-2 diamonds, hop-level probing's best case",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 8, WidthMax: 14, LenMin: 2, LenMax: 2},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Long narrow diamonds: many interior hops, flow reuse does
			// the heavy lifting.
			Name:        "flow-long",
			Description: "long narrow diamonds exercising flow reuse",
			Gen:         fakeroute.GenSpec{Diamonds: 2, WidthMin: 2, WidthMax: 4, LenMin: 4, LenMax: 6, UniformWidth: true},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Meshed interiors: the meshing test should fire and switch
			// the MDA-Lite over to the full MDA — accuracy preserved at
			// full-MDA cost.
			Name:        "flow-meshed",
			Description: "meshed interiors force the switch to the full MDA",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 3, WidthMax: 6, LenMin: 3, LenMax: 4, MeshProb: 0.6},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Uniform widths with a mix of dense and sparse meshing: the
			// sparse (CrossLink) transitions are the hard-to-detect
			// population of the paper's Fig 2, which the meshing test
			// misses with Eq. (1) probability 2^-k at phi=2 — the golden
			// pins how much topology that actually costs.
			Name:        "flow-sparsemesh",
			Description: "sparse cross-links the meshing test can miss (Eq. 1)",
			Gen:         fakeroute.GenSpec{Diamonds: 2, WidthMin: 3, WidthMax: 4, LenMin: 3, LenMax: 4, MeshProb: 0.5, UniformWidth: true},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Width-asymmetric diamonds: the non-uniformity detector's
			// population.
			Name:        "flow-asym",
			Description: "width-asymmetric diamonds",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 3, WidthMax: 6, LenMin: 3, LenMax: 4, AsymProb: 0.8},
			Pairs:       2,
			FlowBased:   true,
		},
		{
			// Unresponsive chain hops between diamonds.
			Name:        "stars",
			Description: "unresponsive chain hops between diamonds",
			Gen:         fakeroute.GenSpec{Diamonds: 2, WidthMin: 2, WidthMax: 3, LenMin: 2, LenMax: 3, StarProb: 0.25, ChainMin: 2, ChainMax: 3},
			Pairs:       3,
			FlowBased:   true,
		},
		{
			// Reply loss, absorbed by prober retries.
			Name:        "lossy",
			Description: "reply loss absorbed by prober retries",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 3, WidthMax: 5, LenMin: 2, LenMax: 3},
			Pairs:       2,
			LossProb:    0.03,
			FlowBased:   true,
		},
		{
			// ICMP rate limiting: token buckets starve sustained probing,
			// so both algorithms lose vertices; the eval pins how much.
			Name:        "ratelimited",
			Description: "ICMP rate limiting starves sustained probing",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 4, WidthMax: 6, LenMin: 2, LenMax: 2},
			Pairs:       2,
			RateLimit:   50,
			RatePeriod:  150,
			FlowBased:   true,
		},
		{
			// Per-destination balancing: every flow to the target rides
			// one path, so neither algorithm can see the diamond; recall
			// is low for both and the diff pins that it stays equal.
			Name:        "perdest",
			Description: "per-destination balancing hides the diamond from both tracers",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 3, WidthMax: 5, LenMin: 2, LenMax: 3, LB: fakeroute.LBMix{PerDestination: 1}},
			Pairs:       2,
		},
		{
			// Per-packet balancing violates MDA assumption (2): flows do
			// not stick to paths, so discovery manufactures false links —
			// the precision side of the diff measures them.
			Name:        "perpacket",
			Description: "per-packet balancing manufactures false links",
			Gen:         fakeroute.GenSpec{Diamonds: 1, WidthMin: 3, WidthMax: 4, LenMin: 2, LenMax: 3, LB: fakeroute.LBMix{PerPacket: 1}},
			Pairs:       2,
		},
		{
			// Route churn between survey passes: half the pairs get a new
			// route before the re-trace, so their atlas priors are stale.
			// The prior-seeded tracer must detect the mismatch, fall back,
			// and recover the new topology — its recall is pinned against
			// the unseeded re-trace baseline. Unseeded columns are
			// unaffected (Build ignores churn).
			Name:         "retrace-churn",
			Description:  "half the routes change between passes: stale priors must fall back",
			Gen:          fakeroute.GenSpec{Diamonds: 2, WidthMin: 2, WidthMax: 3, LenMin: 2, LenMax: 3, UniformWidth: true},
			Pairs:        4,
			FlowBased:    true,
			RetraceChurn: 0.5,
		},
	}
}

// Select filters scenarios by comma-separated patterns: an exact name,
// or a prefix ending in '*'. The special pattern "all" (or an empty
// selection) keeps everything. Unknown patterns return an error listing
// valid names.
func Select(scenarios []Scenario, patterns string) ([]Scenario, error) {
	if patterns == "" || patterns == "all" {
		return scenarios, nil
	}
	var out []Scenario
	seen := make(map[string]bool)
	for _, pat := range splitComma(patterns) {
		matched := false
		for _, sc := range scenarios {
			if !match(pat, sc.Name) {
				continue
			}
			matched = true
			if seen[sc.Name] {
				continue
			}
			seen[sc.Name] = true
			out = append(out, sc)
		}
		if !matched {
			return nil, &UnknownScenarioError{Pattern: pat, Known: names(scenarios)}
		}
	}
	return out, nil
}

// UnknownScenarioError reports a selection pattern that matched nothing.
type UnknownScenarioError struct {
	Pattern string
	Known   []string
}

func (e *UnknownScenarioError) Error() string {
	return "groundtruth: no scenario matches " + e.Pattern +
		" (known: " + strings.Join(e.Known, ", ") + ")"
}

func names(scenarios []Scenario) []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

func match(pat, name string) bool {
	if strings.HasSuffix(pat, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(pat, "*"))
	}
	return pat == name
}

func splitComma(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
