package fakeroute

import (
	"mmlpt/internal/topo"
)

// Exact failure-probability computation (Sec 3).
//
// For a vertex with K uniform successors, the MDA's stopping rule is: keep
// probing until the number of probes sent to the hop reaches n_k, where k
// is the number of distinct successors discovered so far (n_k strictly
// increasing). Discovery fails at the vertex if the rule stops with k < K.
//
// VertexFailureProb evaluates that probability exactly by dynamic
// programming over (probes sent, distinct successors found), with
// absorption at each stopping point. For the simplest diamond (K=2) and
// the 95% table (n1=6) this yields (1/2)^5 = 0.03125, the worked example
// in the paper.

// VertexFailureProb returns the probability that the stopping rule
// terminates before all K uniform successors are seen. nk[k] is the
// stopping point after k distinct successors are found, for k >= 1
// (nk[0] is ignored). K <= 1 never fails. If K exceeds the table, the
// remaining stopping points are treated as the last entry (the rule would
// stall), which callers avoid by sizing the table to the topology.
func VertexFailureProb(K int, nk []int) float64 {
	if K <= 1 {
		return 0
	}
	stop := func(k int) int {
		if k < len(nk) {
			return nk[k]
		}
		return nk[len(nk)-1]
	}
	// prob[j] = P(j distinct found, not yet stopped) after t probes.
	prob := make([]float64, K+1)
	prob[1] = 1 // the first probe always finds one successor
	fail := 0.0
	t := 1
	// Upper bound on probes: once K found, stop at n_K.
	for {
		// Absorb states whose stopping point equals t.
		done := true
		for j := 1; j <= K; j++ {
			if prob[j] == 0 {
				continue
			}
			if stop(j) <= t {
				if j < K {
					fail += prob[j]
				}
				prob[j] = 0
			} else {
				done = false
			}
		}
		if done {
			break
		}
		// One more probe: state j stays with prob j/K, advances with
		// (K-j)/K.
		next := make([]float64, K+1)
		for j := 1; j <= K; j++ {
			if prob[j] == 0 {
				continue
			}
			next[j] += prob[j] * float64(j) / float64(K)
			if j < K {
				next[j+1] += prob[j] * float64(K-j) / float64(K)
			}
		}
		prob = next
		t++
	}
	return fail
}

// GraphFailureProb returns the probability that the MDA, with the given
// stopping points and perfect node control, fails to discover the complete
// topology: one minus the product of per-vertex success probabilities over
// every vertex with two or more successors (assumption: load balancers act
// independently, dispatch uniformly, and all probes are answered).
func GraphFailureProb(g *topo.Graph, nk []int) float64 {
	success := 1.0
	for i := range g.Vertices {
		if k := g.OutDegree(topo.VertexID(i)); k >= 2 {
			success *= 1 - VertexFailureProb(k, nk)
		}
	}
	return 1 - success
}

// MeshingMissProb evaluates Eq. (1): the probability that the MDA-Lite's
// meshing test, generating phi flow identifiers per vertex of the
// from-hop, fails to detect meshing. degrees lists |σ(v)| (the successor
// count when tracing forward, or predecessor count when tracing backward)
// for every vertex v of the from-hop.
func MeshingMissProb(degrees []int, phi int) float64 {
	p := 1.0
	for _, d := range degrees {
		if d <= 0 {
			d = 1
		}
		for i := 0; i < phi-1; i++ {
			p /= float64(d)
		}
	}
	return p
}
