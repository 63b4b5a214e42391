// Package mmlpt is Multilevel MDA-Lite Paris Traceroute: a from-scratch Go
// implementation of the IMC 2018 paper by Vermeulen, Strowes, Fourmaux and
// Friedman.
//
// The package exposes four capabilities:
//
//   - Multipath route tracing at the IP level with the classic Multipath
//     Detection Algorithm (MDA), the reduced-overhead MDA-Lite, or a
//     single-flow Paris traceroute (Algorithm selection in Options).
//   - Multilevel tracing: the MDA-Lite trace plus integrated alias
//     resolution (Monotonic Bounds Test, Network Fingerprinting, MPLS
//     labeling), yielding a router-level topology next to the IP-level one.
//   - Fakeroute, a simulator that runs the tracer over ground-truth
//     multipath topologies and validates its failure-probability bounds.
//   - Survey tooling over a synthetic Internet calibrated to the paper's
//     reported distributions.
//
// Quick start (trace a simulated diamond):
//
//	net, _ := mmlpt.BuildScenario(1, src, dst, mmlpt.SimplestDiamond)
//	prober := mmlpt.NewSimProber(net, src, dst)
//	res := mmlpt.Trace(prober, mmlpt.Options{Algorithm: mmlpt.AlgoMDALite})
//	fmt.Print(res.IP.Graph)
//
// See the examples directory for runnable programs and DESIGN.md for the
// system inventory.
package mmlpt

import (
	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/nprand"
	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/par"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// Addr is an IPv4 address.
type Addr = packet.Addr

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// MustParseAddr is ParseAddr that panics on error.
func MustParseAddr(s string) Addr { return packet.MustParseAddr(s) }

// Graph is a multipath route topology (hops of IP interfaces with edges).
type Graph = topo.Graph

// Diamond is a load-balanced subtopology between a divergence and a
// convergence point.
type Diamond = topo.Diamond

// DiamondMetrics bundles the survey metrics of a diamond.
type DiamondMetrics = topo.Metrics

// Prober sends probes toward one destination; implementations exist for
// the Fakeroute simulator (NewSimProber) and can be added for raw sockets.
type Prober = probe.Prober

// Network is a Fakeroute simulated network.
type Network = fakeroute.Network

// Router is a simulated router.
type Router = fakeroute.Router

// AddrAllocator hands out sequential addresses for topology builders.
type AddrAllocator = fakeroute.AddrAllocator

// PathBuilder assembles ground-truth path topologies hop by hop.
type PathBuilder = fakeroute.PathBuilder

// Observations accumulates alias-resolution measurement by-products.
type Observations = obs.Observations

// AliasSet is one resolved alias set.
type AliasSet = alias.Set

// Algorithm selects the tracing algorithm.
type Algorithm int

const (
	// AlgoMDALite is the paper's reduced-overhead algorithm (default).
	AlgoMDALite Algorithm = iota
	// AlgoMDA is the classic Multipath Detection Algorithm.
	AlgoMDA
	// AlgoSingleFlow traces one flow only (RIPE Atlas style).
	AlgoSingleFlow
	// AlgoMultilevel runs the MDA-Lite plus integrated alias resolution.
	AlgoMultilevel
)

// Options parametrizes Trace.
type Options struct {
	// Algorithm selects the tracer (default AlgoMDALite).
	Algorithm Algorithm
	// FailureBound is the per-vertex failure probability bound used to
	// derive the MDA stopping points (default 0.05, the 95% table).
	FailureBound float64
	// Phi is the MDA-Lite meshing-test budget (default 2).
	Phi int
	// MaxTTL bounds trace depth (default 32).
	MaxTTL int
	// Seed drives stochastic flow choice; equal seeds reproduce runs over
	// a deterministic network.
	Seed uint64
	// Rounds and ProbesPerRound configure multilevel alias resolution
	// (defaults 10 and 30).
	Rounds, ProbesPerRound int
	// Workers is the trace concurrency used by TraceEach (one trace per
	// prober at a time; a single Trace call is unaffected). Zero selects
	// GOMAXPROCS, one forces serial execution. Per-trace seeds are
	// derived deterministically, so results are identical for every
	// worker count.
	Workers int
}

// Result is the outcome of a trace.
type Result struct {
	// IP is the interface-level result (graph, probes, reachability).
	IP *mda.Result
	// Multilevel is set for AlgoMultilevel: alias sets, router graph,
	// per-round snapshots.
	Multilevel *core.Result
}

// Probes returns the total packets the trace sent.
func (r *Result) Probes() uint64 {
	if r.Multilevel != nil {
		return r.Multilevel.TraceProbes + r.Multilevel.AliasProbes
	}
	return r.IP.Probes
}

// traceConfig converts Options to the internal configuration.
func (o Options) traceConfig() mda.Config {
	cfg := mda.Config{MaxTTL: o.MaxTTL, Seed: o.Seed}
	if o.FailureBound > 0 {
		cfg.Stop = mda.StoppingPoints(o.FailureBound, 128)
	}
	return cfg
}

// Trace runs the selected algorithm toward the prober's destination.
func Trace(p Prober, o Options) *Result {
	cfg := o.traceConfig()
	switch o.Algorithm {
	case AlgoMDA:
		return &Result{IP: mda.Trace(p, cfg)}
	case AlgoSingleFlow:
		return &Result{IP: mda.TraceSingleFlow(p, cfg)}
	case AlgoMultilevel:
		ml := core.Trace(p, core.Options{
			Trace: cfg, Phi: o.Phi,
			Rounds: o.Rounds, ProbesPerRound: o.ProbesPerRound,
		})
		return &Result{IP: ml.IP, Multilevel: ml}
	default:
		return &Result{IP: mda.TraceLite(p, cfg, o.Phi)}
	}
}

// TraceEach traces every prober concurrently with o.Workers workers and
// returns the results in prober order. Trace i runs with seed
// nprand.IndexedSeed(o.Seed, i) — the same per-index derivation the
// survey runner uses — so the results are independent of the worker
// count and identical to calling Trace serially with those seeds.
// Probers must target distinct (source, destination) pairs or at least
// be backed by independent state; probers from NewSimProber over any mix
// of networks and pairs qualify.
func TraceEach(probers []Prober, o Options) []*Result {
	results := make([]*Result, len(probers))
	par.Do(len(probers), o.Workers, func(i int) {
		oi := o
		oi.Seed = nprand.IndexedSeed(o.Seed, i)
		results[i] = Trace(probers[i], oi)
	})
	return results
}

// StoppingPoints exposes the MDA stopping-point table n_k for a given
// per-vertex failure bound.
func StoppingPoints(failureBound float64, maxK int) []int {
	return mda.StoppingPoints(failureBound, maxK)
}

// NewNetwork creates an empty Fakeroute network.
func NewNetwork(seed uint64) *Network { return fakeroute.NewNetwork(seed) }

// NewSimProber returns a prober tracing src→dst over the simulated
// network.
func NewSimProber(n *Network, src, dst Addr) Prober {
	return probe.NewSimProber(n, src, dst)
}

// NewAddrAllocator starts sequential address allocation at base.
func NewAddrAllocator(base Addr) *AddrAllocator { return fakeroute.NewAddrAllocator(base) }

// NewPathBuilder starts a ground-truth path whose hop 0 is a fresh single
// vertex.
func NewPathBuilder(alloc *AddrAllocator) *PathBuilder { return fakeroute.NewPathBuilder(alloc) }

// BuildScenario registers build's topology as the (src, dst) path on a
// fresh network with one router per interface.
func BuildScenario(seed uint64, src, dst Addr, build func(*AddrAllocator, Addr) *Graph) (*Network, *Graph) {
	net, path := fakeroute.BuildScenario(seed, src, dst, build)
	return net, path.Graph
}

// Canonical topologies from the paper's evaluation (Sec 2.4.1, Sec 3,
// Fig 1), usable with BuildScenario.
var (
	SimplestDiamond     = fakeroute.SimplestDiamond
	Fig1UnmeshedDiamond = fakeroute.Fig1UnmeshedDiamond
	Fig1MeshedDiamond   = fakeroute.Fig1MeshedDiamond
	MaxLength2Diamond   = fakeroute.MaxLength2Diamond
	SymmetricDiamond    = fakeroute.SymmetricDiamond
	AsymmetricDiamond   = fakeroute.AsymmetricDiamond
	MeshedDiamond48     = fakeroute.MeshedDiamond48
)

// GraphFailureProb returns the exact probability that the MDA with the
// given stopping points fails to discover the complete ground-truth
// topology (the Fakeroute validation primitive).
func GraphFailureProb(g *Graph, stop []int) float64 {
	return fakeroute.GraphFailureProb(g, stop)
}
