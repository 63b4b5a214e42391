// Package mda holds one multipath trace session and three drivers over
// it. The Session keeps the trace state: the graph discovered so far,
// which flows are known to reach which vertex, and the flow allocator.
// The drivers decide what to probe next:
//
//   - the Multipath Detection Algorithm of Veitch, Augustin, Teixeira
//     and Friedman (Infocom 2009), as recalled in Sec 2.1 of the paper
//     (Trace, Session.RunMDA): per-vertex successor discovery under a
//     family of stopping points n_k, with node control ensuring probes
//     to the next hop transit a chosen vertex;
//   - the MDA-Lite (TraceLite, Session.RunLite), below;
//   - single-flow tracing (TraceSingleFlow), one flow per TTL.
//
// The MDA-Lite (Sec 2.3) is a reduced-overhead alternative to the MDA
// that proceeds hop by hop rather than vertex by vertex, reserving node
// control for two narrowly scoped tests:
//
//   - the meshing test, which spends ϕ flow identifiers per vertex to
//     look for links that would invalidate hop-level probing, failing
//     with the probability of Eq. (1); and
//   - the width-asymmetry (non-uniformity) test, a free, purely
//     topological check.
//
// When either test fires, the session switches over to the full MDA,
// keeping the cumulative packet count.
//
// With Config.Prior set, the trace runs in prior-seeded mode: each hop
// the prior covers is probed only to the confirmation budget (enough
// flows to corroborate the expected vertex set under the MDA stopping
// rule), edge completion and the meshing test are short-circuited for
// pairs the prior pins, and any mismatch — a vertex the prior does not
// expect, or an expected vertex missing after the budget — abandons the
// prior and falls back to full discovery from the enclosing divergence
// hop, keeping the cumulative packet count so recall is never worse
// than an unseeded trace.
//
// The package sits above probe, topo and obs and below core, survey and
// the experiments, which pick a driver per trace.
package mda

import (
	"math"
)

// StoppingPoints returns the table n_k for k = 0..maxK such that, for a
// vertex with k+1 uniform successors of which k are known, sending n_k
// probes bounds the probability of missing the unseen successor by eps:
//
//	n_k = ⌈ ln(eps/(k+1)) / ln(k/(k+1)) ⌉
//
// This is the hypothesis-test rule of Veitch et al. [Sec II.B]. With
// eps = 0.05 it reproduces the widely deployed 95%-confidence table
// (6, 11, 16, 21, 27, 33, ...); with eps = 2⁻⁸ it reproduces the paper's
// quoted "Veitch et al. Table 1" values n1 = 9, n2 = 17, n4 = 33.
// n_0 is defined as 1 (a first probe is always sent).
func StoppingPoints(eps float64, maxK int) []int {
	if eps <= 0 || eps >= 1 {
		panic("mda: eps must be in (0,1)")
	}
	if maxK < 1 {
		maxK = 1
	}
	nk := make([]int, maxK+1)
	nk[0] = 1
	for k := 1; k <= maxK; k++ {
		x := math.Log(eps/float64(k+1)) / math.Log(float64(k)/float64(k+1))
		// Guard against representation error pushing an exact integer up.
		n := int(math.Ceil(x - 1e-9))
		if n < nk[k-1]+1 {
			n = nk[k-1] + 1 // the table must be strictly increasing
		}
		nk[k] = n
	}
	return nk
}

// Default95 is the per-vertex 95%-confidence table used by deployed MDA
// implementations and by the Sec 3 Fakeroute validation (n1 = 6 gives the
// simplest diamond an exact failure probability of 2⁻⁵ = 0.03125).
func Default95(maxK int) []int { return StoppingPoints(0.05, maxK) }

// VeitchTable1 reproduces the stopping points the paper quotes from
// Veitch et al.'s Table 1: n1 = 9, n2 = 17, n3 = 25, n4 = 33.
func VeitchTable1(maxK int) []int { return StoppingPoints(1.0/256, maxK) }

// confirmBudget returns the probe budget for confirming a hop whose
// prior expects k vertices. It is the stopping point n_k itself: under
// the MDA hypothesis test, n_k probes over a width-k hop bound the
// probability of an unseen (k+1)-th successor, so a confirmation pass
// that has seen all k expected vertices within n_k probes has exactly
// the evidence the discovery pass would have needed to stop — and a
// pass that exhausts n_k probes without covering the expected set has
// statistically significant evidence the route changed.
func confirmBudget(nk []int, k int) int { return stopPoint(nk, k) }

// Stop returns n_k from the table, extending past the end by the final
// increment so very wide hops still terminate.
func stopPoint(nk []int, k int) int {
	if k < 0 {
		k = 0
	}
	if k < len(nk) {
		return nk[k]
	}
	last := len(nk) - 1
	inc := nk[last]
	if last >= 1 {
		inc = nk[last] - nk[last-1]
	}
	return nk[last] + inc*(k-last)
}
