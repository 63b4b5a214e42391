package mmlpt

// Flow-order pin: stronger than the probe-count goldens of
// regression_test.go. For every scenario below the exact sequence of
// (TTL, flow identifier) probes — batch boundaries included — is hashed
// for an MDA trace, an MDA-Lite trace and a prior-seeded MDA-Lite
// re-trace. The digests were recorded from the map-based session
// bookkeeping (commit 19a713a) before internal/mda's tables were rebuilt;
// any rewrite of that bookkeeping must choose exactly the same flows in
// exactly the same order, so it must reproduce them bit for bit.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/mdalite"
	"mmlpt/internal/packet"
	"mmlpt/internal/prior"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// orderProber hashes every traceroute probe a tracer asks for, in order.
// A batch contributes a length marker ahead of its specs, so regrouping
// the same probes into different rounds changes the digest too.
type orderProber struct {
	probe.Prober
	h hash.Hash64
	n int
}

func newOrderProber(p probe.Prober) *orderProber {
	return &orderProber{Prober: p, h: fnv.New64a()}
}

func (o *orderProber) note(ttl int, flow uint16) {
	o.h.Write([]byte{byte(ttl), byte(flow >> 8), byte(flow)})
	o.n++
}

func (o *orderProber) Probe(flow uint16, ttl int) *packet.Reply {
	o.h.Write([]byte{0xff, 0, 1})
	o.note(ttl, flow)
	return o.Prober.Probe(flow, ttl)
}

func (o *orderProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	o.h.Write([]byte{0xfe, byte(len(specs) >> 8), byte(len(specs))})
	for _, sp := range specs {
		o.note(sp.TTL, sp.FlowID)
	}
	return o.Prober.ProbeBatch(specs)
}

func (o *orderProber) digest() string { return fmt.Sprintf("%d:%016x", o.n, o.h.Sum64()) }

type shapeFunc = func(*fakeroute.AddrAllocator, packet.Addr) *topo.Graph

// wide64Diamond is an unmeshed, uniform diamond with a 64-wide hop: the
// MDA's per-vertex node control mints hundreds of flows per vertex there.
func wide64Diamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(8).Spread(8).Converge(8).Converge(1).End(dst)
}

// starInsideDiamond puts a silent hop between a diamond's divergence and
// convergence points: every vertex of the 4-wide hop discovers the same
// star successor, so AdoptStarFlows runs once per vertex over a growing
// no-reply set, and node control must work through the star.
func starInsideDiamond(alloc *fakeroute.AddrAllocator, dst packet.Addr) *topo.Graph {
	return fakeroute.NewPathBuilder(alloc).Spread(4).Star().Spread(3).Converge(1).End(dst)
}

type orderScenario struct {
	name  string
	build shapeFunc
	// tweak adjusts the network after construction (per-packet balancing,
	// reply loss): the cases where one flow is seen at two vertices of a
	// hop, or re-probed after silence.
	tweak func(*fakeroute.Network, *fakeroute.Path)
}

func orderScenarios() []orderScenario {
	sc := []orderScenario{
		{name: "wide64", build: wide64Diamond},
		{name: "star-inside", build: starInsideDiamond},
		{name: "fig1-perpacket", build: fakeroute.Fig1UnmeshedDiamond, tweak: func(_ *fakeroute.Network, p *fakeroute.Path) {
			p.LB[p.Graph.Hop(0)[0]] = fakeroute.LBPerPacket
		}},
		{name: "symmetric-lossy", build: fakeroute.SymmetricDiamond, tweak: func(n *fakeroute.Network, _ *fakeroute.Path) {
			n.LossProb = 0.15
		}},
	}
	for _, name := range fakeroute.ShapeNames() {
		sc = append(sc, orderScenario{name: name, build: fakeroute.Shapes[name]})
	}
	return sc
}

func (sc orderScenario) network(seed uint64) *fakeroute.Network {
	net, path := fakeroute.BuildScenario(seed, benchSrc, benchDst, sc.build)
	if sc.tweak != nil {
		sc.tweak(net, path)
	}
	return net
}

// flowOrderDigests traces one scenario three ways and returns the digests
// keyed "<scenario>/<seed>/<tracer>".
func flowOrderDigests(sc orderScenario, seed uint64) map[string]string {
	out := make(map[string]string, 3)
	key := func(tracer string) string { return fmt.Sprintf("%s/%d/%s", sc.name, seed, tracer) }

	sim := probe.NewSimProber(sc.network(seed), benchSrc, benchDst)
	sim.Retries = 0
	o := newOrderProber(sim)
	mda.Trace(o, mda.Config{Seed: seed})
	out[key("mda")] = o.digest()

	// MDA-Lite, then a prior-seeded re-trace of the same pair over the same
	// network, with flow hints captured from the first session.
	net := sc.network(seed)
	sim = probe.NewSimProber(net, benchSrc, benchDst)
	sim.Retries = 0
	o = newOrderProber(sim)
	s := mda.NewSession(o, mda.Config{Seed: seed})
	first := mdalite.Run(s, 2)
	out[key("lite")] = o.digest()

	pp := prior.FromGraph(benchSrc, benchDst, first.Graph)
	pp.CaptureLandings(s)
	sim = probe.NewSimProber(net, benchSrc, benchDst)
	sim.Retries = 0
	o = newOrderProber(sim)
	mdalite.Trace(o, mda.Config{Seed: seed + 100, Prior: pp}, 2)
	out[key("prior")] = o.digest()
	return out
}

func TestFlowOrderPinned(t *testing.T) {
	t.Parallel()
	seen := 0
	for _, sc := range orderScenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			for k, got := range flowOrderDigests(sc, seed) {
				seen++
				want, ok := flowOrderGolden[k]
				if !ok {
					t.Errorf("no golden for %q (got %q)", k, got)
				} else if got != want {
					t.Errorf("%s: probe sequence digest %s, want %s", k, got, want)
				}
			}
		}
	}
	if seen != len(flowOrderGolden) {
		t.Errorf("checked %d digests, golden table has %d", seen, len(flowOrderGolden))
	}
}
