package mda

import (
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// DefaultPhi is the minimum (and default) meshing-test budget; RunLite
// raises a smaller φ to it.
const DefaultPhi = 2

// TraceLite runs the MDA-Lite over p and returns the discovered topology.
func TraceLite(p probe.Prober, cfg Config, phi int) *Result {
	s := NewSession(p, cfg)
	defer s.release()
	return s.RunLite(phi)
}

// RunLite executes the MDA-Lite on a fresh session. On a meshing or
// asymmetry detection it switches over to the full MDA from the affected
// diamond onward, keeping the discovery state accumulated so far (the
// vertices, edges and flow knowledge are all flow-confirmed, so nothing
// needs re-probing; node control fills in what hop-level probing could
// not guarantee). The result carries SwitchedToMDA.
func (s *Session) RunLite(phi int) *Result {
	if phi < DefaultPhi {
		phi = DefaultPhi
	}
	if switchHop, switched := s.liteHops(phi); switched {
		s.runMDA(switchHop)
		return s.finish(true)
	}
	return s.finish(false)
}

// liteHops performs hop-by-hop discovery. On detecting meshing or
// non-uniformity it returns the hop the full MDA should resume from (the
// hop after the enclosing diamond's divergence point) and true.
//
// When the session carries a prior, hops it covers are handled by
// confirmation rather than discovery, and pairs it pins skip the probing
// steps; a confirmation mismatch abandons the prior for the rest of the
// trace and re-discovers from the enclosing divergence hop.
func (s *Session) liteHops(phi int) (int, bool) {
	prior := s.cfg.Prior
	var confirmed []bool // per hop: settled by prior confirmation

	isConfirmed := func(h int) bool { return h >= 0 && h < len(confirmed) && confirmed[h] }
	setConfirmed := func(h int, v bool) {
		for len(confirmed) <= h {
			confirmed = append(confirmed, false)
		}
		confirmed[h] = v
	}

	// pairChecks runs edge completion plus the meshing and asymmetry
	// detectors over hop pair (i, i+1), returning the switch decision the
	// main loop acts on. When the prior pins both hops the probing steps
	// are short-circuited: the pair's recorded links are adopted from the
	// prior and the detectors run over the adopted graph for free.
	pairChecks := func(i int) (int, bool) {
		if isConfirmed(i) && isConfirmed(i+1) {
			s.adoptPriorEdges(i, s.cfg.Prior)
			// With the pair's links adopted, meshing shows directly in
			// the graph under the Sec 2.2 three-case definition — the
			// free form of the meshing test, no phi probes spent.
			if s.g.Width(i) >= 2 && s.g.Width(i+1) >= 2 && s.g.PairMeshed(i) {
				return s.divergenceHop(i) + 1, true
			}
		} else {
			s.completeEdges(i)
			if s.g.Width(i) >= 2 && s.g.Width(i+1) >= 2 {
				if meshed := s.meshingTest(i, phi); meshed {
					return s.divergenceHop(i) + 1, true
				}
			}
		}
		// Non-uniformity: width asymmetry over the completed pair.
		if pairAsymmetric(s.g, i) {
			return s.divergenceHop(i) + 1, true
		}
		return 0, false
	}

	// fallBack abandons the prior after a mismatch at hop h: re-discover
	// every hop from the enclosing divergence point through h in full,
	// then re-check the re-discovered pairs. Pair (h-1, h) is left to the
	// main loop, which processes it right after this returns. The packet
	// count is cumulative — confirmation probes already spent stay spent —
	// so the fallback trace is never cheaper, and never less complete,
	// than an unseeded one from this hop range.
	fallBack := func(h int) (int, bool) {
		s.priorAbandoned = true
		prior = nil
		d := s.divergenceHop(h)
		start := d + 1
		if h == 0 {
			start = 0
		}
		for j := start; j <= h; j++ {
			setConfirmed(j, false)
			s.discoverHop(j)
		}
		for j := d; j <= h-2; j++ {
			if sw, switched := pairChecks(j); switched {
				return sw, true
			}
		}
		return 0, false
	}

	// handleHop settles hop h: by confirmation when the prior covers it,
	// by discovery otherwise (and by fallback re-discovery on a
	// confirmation mismatch).
	handleHop := func(h int) (int, bool) {
		if prior != nil {
			if want, ok := prior.HopAddrs(h); ok && len(want) > 0 {
				if s.confirmHop(h, want, prior) {
					setConfirmed(h, true)
					s.priorConfirmedHops++
					return 0, false
				}
				return fallBack(h)
			}
		}
		s.discoverHop(h)
		return 0, false
	}

	if sw, switched := handleHop(0); switched {
		return sw, true
	}
	starRun := 0
	for h := 1; h <= s.cfg.MaxTTL; h++ {
		if s.hopDone(h - 1) {
			return 0, false
		}
		if sw, switched := handleHop(h); switched {
			return sw, true
		}
		if sw, switched := pairChecks(h - 1); switched {
			return sw, true
		}
		if s.hopAllStars(h) {
			starRun++
			if starRun >= maxConsecutiveStars {
				return 0, false
			}
		} else {
			starRun = 0
		}
	}
	return 0, false
}

// confirmHop corroborates hop h against the prior's expected vertex set
// instead of running open-ended discovery. Probing stops as soon as every
// expected address has been seen — the prior already paid the full
// stopping-rule cost when the topology was first discovered, so the
// re-trace only needs evidence the route is unchanged — and is bounded by
// the confirmation budget n_k for an expected width of k. It reports
// whether the hop was confirmed; a false return means either a reply
// from an address the prior does not expect (new vertex) or an expected
// address still unseen at budget exhaustion (missing vertex), both of
// which the caller treats as a route change.
func (s *Session) confirmHop(h int, want []packet.Addr, prior TracePrior) bool {
	wantSet := make(map[packet.Addr]bool, len(want))
	for _, a := range want {
		wantSet[a] = true
	}
	budget := confirmBudget(s.cfg.Stop, len(want))
	seen := make(map[packet.Addr]bool, len(want))
	tried := make(map[uint16]bool)
	sent := 0
	mismatch := false
	stop := false

	note := func(v topo.VertexID) {
		a := s.g.V(v).Addr
		if a == topo.StarAddr {
			return
		}
		if !wantSet[a] {
			mismatch = true
			stop = true
			return
		}
		if !seen[a] {
			seen[a] = true
			if len(seen) == len(want) {
				stop = true
			}
		}
	}

	try := func(f uint16) {
		if stop || tried[f] {
			return
		}
		tried[f] = true
		if v, known := s.vertexAt(h, f); known {
			note(v) // knowledge already present; no packet needed
			return
		}
		if sent >= budget {
			stop = true
			return
		}
		sent++
		v, ok := s.probeHop(h, f)
		if !ok {
			return
		}
		if h > 0 {
			if u, known := s.vertexAt(h-1, f); known {
				s.g.AddEdge(u, v)
			}
		}
		note(v)
	}

	// Pass 0: flow hints — identifiers the prior saw land on each expected
	// address. Hints only reorder probing toward flows likely to cover the
	// expected set quickly; stale hints cost at most their probes. Rounds
	// take one hint per still-unseen address, so one address's hint list
	// cannot soak the budget before the others get their first try —
	// landings are usually stable, making the first hint per address
	// sufficient on an unchanged route.
	for round := 0; !stop; round++ {
		tookOne := false
		for _, a := range want {
			if stop {
				break
			}
			if seen[a] {
				continue
			}
			if fs := prior.FlowHints(h, a); round < len(fs) {
				tookOne = true
				try(fs[round])
			}
		}
		if !tookOne {
			break
		}
	}
	if h > 0 && !s.cfg.disableFlowReuse {
		// Pass 1: one flow per previous-hop vertex, seeding one edge per
		// known predecessor, as in discovery.
		for _, u := range s.g.Hop(h - 1) {
			if stop {
				break
			}
			if s.isDst(u) {
				continue
			}
			for _, f := range s.flowsOf(u) {
				if !tried[f] {
					try(f)
					break
				}
			}
		}
		// Pass 2: remaining previously used flows.
		for _, u := range s.g.Hop(h - 1) {
			if stop {
				break
			}
			if s.isDst(u) {
				continue
			}
			for _, f := range s.flowsOf(u) {
				if stop {
					break
				}
				try(f)
			}
		}
	}
	// Pass 3: fresh flows.
	for !stop && sent < budget {
		f, ok := s.freshFlow()
		if !ok {
			break
		}
		try(f)
	}
	return !mismatch && len(seen) == len(want)
}

// adoptPriorEdges short-circuits edge completion for a hop pair both of
// whose endpoints the prior has confirmed: every link the earlier trace
// recorded between the corroborated vertex sets is adopted without
// spending a probe. Star vertices keep only their inferred edges.
func (s *Session) adoptPriorEdges(i int, prior TracePrior) {
	for _, u := range s.g.Hop(i) {
		ua := s.g.V(u).Addr
		if ua == topo.StarAddr {
			continue
		}
		for _, w := range s.g.Hop(i + 1) {
			wa := s.g.V(w).Addr
			if wa == topo.StarAddr {
				continue
			}
			if prior.HasEdge(ua, wa) {
				s.g.AddEdge(u, w)
			}
		}
	}
}

// divergenceHop walks back from hop h to the enclosing diamond's
// divergence point: the nearest single-vertex hop at or before h.
func (s *Session) divergenceHop(h int) int {
	for d := h; d > 0; d-- {
		if s.g.Width(d) == 1 {
			return d
		}
	}
	return 0
}

// discoverHop finds the vertices at hop h. Flows are tried in the
// MDA-Lite's order: one flow from each vertex discovered at the previous
// hop (seeding one edge per known predecessor), then the other flows
// already used at the previous hop, then fresh ones. The MDA's hop-level
// stopping rule applies: keep probing until the probe count reaches n_k,
// where k is the number of vertices found at hop h so far.
//
// Probes are issued in rounds: candidate flows accumulate until they fill
// the current n_k shortfall, then go out as one ProbeBatch; rounds also
// close at pass boundaries, so every selection decision (is this flow's
// hop-h landing known? did its earlier probe draw a reply?) sees fully
// integrated state, exactly as the probe-at-a-time loop saw it. Within a
// pass, candidate flows are disjoint (a flow lands on one vertex per
// hop), so no decision depends on the pending round's own replies, and
// n_k only grows as vertices are found — the rounds therefore send
// exactly the flows, in exactly the order, the serial loop sent, replies
// or no replies.
func (s *Session) discoverHop(h int) {
	sent := 0
	gotReply := false
	var pending []uint16

	stop := func() int { return stopPoint(s.cfg.Stop, max(s.g.Width(h), 1)) }

	// flush sends the accumulated round as one batch and integrates the
	// replies, seeding one edge per flow whose previous-hop landing is
	// known.
	flush := func() {
		if len(pending) == 0 {
			return
		}
		sent += len(pending)
		for i, w := range s.probeHopBatch(h, pending) {
			if w == topo.None {
				continue
			}
			gotReply = true
			if h > 0 {
				if u, known := s.vertexAt(h-1, pending[i]); known {
					s.g.AddEdge(u, w)
				}
			}
		}
		pending = pending[:0]
	}

	tryFlow := func(f uint16) bool {
		if _, known := s.vertexAt(h, f); known {
			return false // no packet needed; knowledge already present
		}
		pending = append(pending, f)
		if sent+len(pending) >= stop() {
			flush()
		}
		return true
	}

	if h > 0 && !s.cfg.disableFlowReuse {
		// Pass 1: one flow per previous-hop vertex.
		for _, u := range s.g.Hop(h - 1) {
			if sent >= stop() {
				break
			}
			if s.isDst(u) {
				continue
			}
			for _, f := range s.flowsOf(u) {
				if tryFlow(f) {
					break
				}
			}
		}
		flush()
		// Pass 2: remaining previously used flows. A flow probed in pass
		// 1 is skipped here when it drew a reply (its landing is known)
		// and re-probed when it did not, as in the serial loop; the pass
		// boundary flush above makes that distinction observable.
		for _, u := range s.g.Hop(h - 1) {
			if s.isDst(u) {
				continue
			}
			for _, f := range s.flowsOf(u) {
				if sent+len(pending) >= stop() {
					break
				}
				tryFlow(f)
			}
		}
		flush()
	}
	// Pass 3: fresh flows.
	for sent+len(pending) < stop() {
		f, ok := s.freshFlow()
		if !ok {
			break
		}
		tryFlow(f)
	}
	flush()
	if !gotReply && sent > 0 {
		star := s.g.AddVertex(h, topo.StarAddr)
		s.adoptStarFlows(h, star)
		if h > 0 {
			for _, u := range s.g.Hop(h - 1) {
				if !s.isDst(u) {
					s.g.AddEdge(u, star)
				}
			}
		}
	}
}

// maxEdgeCompletionIters caps the edge-completion loop: probing can
// surface a vertex the stopping rule missed, which re-opens the pair, but
// an adversarial or lossy hop could keep that going indefinitely. A pair
// still changing when the cap strikes is recorded in the session's
// truncation counter (surfaced as Result.EdgeCompletionTruncated) so a
// silently incomplete pair is observable downstream.
const maxEdgeCompletionIters = 4

// completeEdges runs the deterministic edge-completion step for the hop
// pair (i, i+1) (Sec 2.3.1): forward probes from successor-less vertices
// at hop i, backward probes from predecessor-less vertices at hop i+1.
// Probing can (rarely) surface a vertex the stopping rule missed, so the
// step loops until stable.
func (s *Session) completeEdges(i int) {
	for iter := 0; iter < maxEdgeCompletionIters; iter++ {
		changed := false
		wi, wj := s.g.Width(i), s.g.Width(i+1)
		if wj <= wi {
			// Forward tracing for hop i vertices lacking successors.
			for _, u := range s.g.Hop(i) {
				if s.g.OutDegree(u) > 0 || s.isDst(u) || s.g.V(u).Addr == topo.StarAddr {
					continue
				}
				for _, f := range s.flowsOf(u) {
					if w, known := s.vertexAt(i+1, f); known {
						s.g.AddEdge(u, w)
						changed = true
						break
					}
					if w, ok := s.probeHop(i+1, f); ok {
						s.g.AddEdge(u, w)
						changed = true
						break
					}
				}
			}
		}
		if wj >= wi {
			// Backward tracing for hop i+1 vertices lacking predecessors.
			for _, w := range s.g.Hop(i + 1) {
				if s.g.InDegree(w) > 0 || s.g.V(w).Addr == topo.StarAddr {
					continue
				}
				for _, f := range s.flowsOf(w) {
					if u, known := s.vertexAt(i, f); known {
						s.g.AddEdge(u, w)
						changed = true
						break
					}
					if u, ok := s.probeHop(i, f); ok {
						s.g.AddEdge(u, w)
						changed = true
						break
					}
				}
			}
		}
		if !changed {
			return
		}
	}
	// Falling out of the loop means the final iteration still made
	// progress: the pair was truncated, not stabilized.
	s.edgeCompletionTruncs++
}

// meshingTest applies the Sec 2.3.2 test to hop pair (i, i+1), tracing
// from the hop with the greater number of vertices toward the other with
// ϕ flow identifiers per vertex. It reports whether meshing was detected.
func (s *Session) meshingTest(i, phi int) bool {
	wi, wj := s.g.Width(i), s.g.Width(i+1)
	forward := wi >= wj // trace from the wider hop; ties go forward
	fromHop, toHop := i, i+1
	if !forward {
		fromHop, toHop = i+1, i
	}
	for _, v := range s.g.Hop(fromHop) {
		if s.isDst(v) || s.g.V(v).Addr == topo.StarAddr {
			continue
		}
		s.ensureFlows(v, phi)
		flows := s.flowsOf(v)
		if len(flows) > phi {
			flows = flows[:phi]
		}
		for _, f := range flows {
			w, ok := s.vertexAt(toHop, f)
			if !ok {
				w, ok = s.probeHop(toHop, f)
			}
			if ok {
				// A cached landing carries the same evidence as a fresh
				// probe: record the edge either way.
				if forward {
					s.g.AddEdge(v, w)
				} else {
					s.g.AddEdge(w, v)
				}
			}
		}
	}
	if forward {
		for _, v := range s.g.Hop(i) {
			if s.g.OutDegree(v) >= 2 {
				return true
			}
		}
	} else {
		for _, v := range s.g.Hop(i + 1) {
			if s.g.InDegree(v) >= 2 {
				return true
			}
		}
	}
	return false
}

// pairAsymmetric implements the non-uniformity detector (Sec 2.3.3): the
// hop pair shows width asymmetry if successor counts differ across hop i
// or predecessor counts differ across hop i+1. Star vertices are excluded:
// their edges are inferred, not measured. The check runs on every hop of
// the trace loop, so it scans degrees in place instead of materializing
// per-hop count slices.
func pairAsymmetric(g *topo.Graph, i int) bool {
	return degreesDiffer(g, i, false) || degreesDiffer(g, i+1, true)
}

// degreesDiffer reports whether hop h's non-star vertices disagree on
// out-degree (pred false) or in-degree (pred true), comparing each degree
// against the first one seen — allocation-free.
func degreesDiffer(g *topo.Graph, h int, pred bool) bool {
	first, have := 0, false
	for _, v := range g.Hop(h) {
		if g.V(v).Addr == topo.StarAddr {
			continue
		}
		d := g.OutDegree(v)
		if pred {
			d = g.InDegree(v)
		}
		if !have {
			first, have = d, true
		} else if d != first {
			return true
		}
	}
	return false
}
