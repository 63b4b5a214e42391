// Package alias implements the alias resolution machinery of Multilevel
// MDA-Lite Paris Traceroute (Sec 4.1): MIDAR's Monotonic Bounds Test over
// IP ID time series, Vanaubel et al.'s Network Fingerprinting, and MPLS
// labeling, combined under the MBT's set-based refinement schema.
//
// Candidate aliases are the addresses found at a single hop of one
// multipath trace. A "free" Round 0 evaluation uses only the observations
// already collected during the MDA-Lite trace; each subsequent round adds
// interleaved probing (indirect TTL-expiry probes for MMLPT, direct Echo
// probes for the MIDAR-style comparison of Table 2) and refines the sets.
package alias

import (
	"slices"
	"sort"

	"mmlpt/internal/obs"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// Outcome classifies a pair or set verdict.
type Outcome int

const (
	// Unable means the evidence does not allow a determination: constant
	// or non-monotonic IP ID series, unresponsive addresses, or reply IDs
	// copied from the probe.
	Unable Outcome = iota
	// Accepted means the addresses are considered aliases of one router.
	Accepted
	// Rejected means the addresses belong to different routers.
	Rejected
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Accepted:
		return "accept"
	case Rejected:
		return "reject"
	default:
		return "unable"
	}
}

// UnableCause explains why an address's series cannot support the MBT.
type UnableCause int

const (
	CauseNone UnableCause = iota
	// CauseConstant: every sample carries the same (usually zero) IP ID.
	CauseConstant
	// CauseNonMonotonic: the address's own series violates monotonicity
	// (per-reply random IDs).
	CauseNonMonotonic
	// CauseUnresponsive: no replies at all.
	CauseUnresponsive
	// CauseCopyProbe: reply IDs echo the probe's IP ID (direct probing).
	CauseCopyProbe
	// CauseTooFew: not enough samples for a series.
	CauseTooFew
)

// String renders the cause.
func (c UnableCause) String() string {
	switch c {
	case CauseConstant:
		return "constant"
	case CauseNonMonotonic:
		return "non-monotonic"
	case CauseUnresponsive:
		return "unresponsive"
	case CauseCopyProbe:
		return "copy-probe"
	case CauseTooFew:
		return "too-few-samples"
	default:
		return "ok"
	}
}

// wrapThreshold is the half-space bound for forward differences: a merged
// series is monotonic (mod 2^16) while consecutive forward differences
// stay below it.
const wrapThreshold = 1 << 15

// SeriesUsable checks whether a sample series can support the MBT and
// returns the blocking cause otherwise.
func SeriesUsable(samples []obs.Sample, direct bool) (bool, UnableCause) {
	if len(samples) == 0 {
		return false, CauseUnresponsive
	}
	if len(samples) < 3 {
		return false, CauseTooFew
	}
	if direct {
		copies := 0
		for _, s := range samples {
			if s.IPID == s.SentID {
				copies++
			}
		}
		if copies == len(samples) {
			return false, CauseCopyProbe
		}
	}
	constant := true
	for _, s := range samples[1:] {
		if s.IPID != samples[0].IPID {
			constant = false
			break
		}
	}
	if constant {
		return false, CauseConstant
	}
	if !Monotonic(samples) {
		return false, CauseNonMonotonic
	}
	return true, CauseNone
}

// Monotonic reports whether the sequence of IP IDs, in Seq order, is
// strictly increasing modulo 2^16 with forward steps below the wrap
// threshold: the Monotonic Bounds Test's consistency condition.
func Monotonic(samples []obs.Sample) bool {
	for i := 1; i < len(samples); i++ {
		diff := samples[i].IPID - samples[i-1].IPID // uint16 arithmetic wraps
		if diff == 0 || diff >= wrapThreshold {
			return false
		}
	}
	return true
}

// MBTVerdict applies the Monotonic Bounds Test to a pair of usable series:
// if their interleaved merge stays monotonic the addresses are consistent
// with sharing one counter (Accepted); a single out-of-sequence identifier
// rejects the pair. Series that do not interleave (no overlap in time)
// cannot discriminate and yield Unable.
//
// The merge is walked, not built: one cursor per Seq-ordered series, no
// allocation, stopping at the first violation. Seqs are unique within one
// Observations (obs.Sample.Seq); a tie would take a's sample first.
func MBTVerdict(a, b []obs.Sample) Outcome {
	if len(a) == 0 || len(b) == 0 {
		return Unable
	}
	// Overlap check: the windows [minSeq,maxSeq] must intersect, else the
	// merged series is a concatenation and monotonicity is uninformative.
	if a[len(a)-1].Seq < b[0].Seq || b[len(b)-1].Seq < a[0].Seq {
		return Unable
	}
	var s, prev obs.Sample
	for i, j := 0, 0; i+j < len(a)+len(b); prev = s {
		if j == len(b) || i < len(a) && a[i].Seq <= b[j].Seq {
			s, i = a[i], i+1
		} else {
			s, j = b[j], j+1
		}
		if diff := s.IPID - prev.IPID; i+j > 1 && (diff == 0 || diff >= wrapThreshold) {
			return Rejected
		}
	}
	return Accepted
}

// Evidence is the full pairwise verdict with its source tests.
type Evidence struct {
	MBT         Outcome
	Fingerprint Outcome // Rejected if signatures differ, else Unable
	MPLS        Outcome // Accepted same constant label, Rejected different
}

// Combine merges the tests: any rejection rejects; otherwise an MBT or
// MPLS accept accepts; otherwise unable.
func (e Evidence) Combine() Outcome {
	if e.MBT == Rejected || e.Fingerprint == Rejected || e.MPLS == Rejected {
		return Rejected
	}
	if e.MBT == Accepted || e.MPLS == Accepted {
		return Accepted
	}
	return Unable
}

// Resolver refines alias sets over probing rounds.
type Resolver struct {
	// P sends the additional probing; may be nil for a Round 0-only
	// evaluation.
	P probe.Prober
	// Obs is the observation store, typically pre-populated by the trace.
	Obs *obs.Observations
	// Direct selects MIDAR-style Echo probing instead of MMLPT's
	// indirect TTL-expiry probing.
	Direct bool
	// ProbesPerRound is the number of MBT samples solicited per address
	// per round (paper: 30).
	ProbesPerRound int
	// Rounds is the number of probing rounds after Round 0 (paper: 10).
	Rounds int

	seq uint16
}

// NewResolver returns a resolver with the paper's defaults.
func NewResolver(p probe.Prober, o *obs.Observations) *Resolver {
	return &Resolver{P: p, Obs: o, ProbesPerRound: 30, Rounds: 10}
}

// AddrUsable evaluates the address's series of the resolver's family.
func (r *Resolver) AddrUsable(a packet.Addr) (bool, UnableCause) {
	ao := r.Obs.Get(a)
	if ao == nil {
		return false, CauseUnresponsive
	}
	return SeriesUsable(r.series(ao), r.Direct)
}

// series is the address's sample series of the resolver's family.
func (r *Resolver) series(ao *obs.AddrObs) []obs.Sample {
	if r.Direct {
		return ao.Direct
	}
	return ao.Indirect
}

// facts is what a pair verdict reads of one address, gathered once per
// address per Partition or ClassifySet call.
type facts struct {
	ao      *obs.AddrObs // nil when the address was never observed
	series  []obs.Sample // the resolver's family
	usable  bool         // SeriesUsable(series)
	fp      obs.Fingerprint
	label   uint32 // the constant MPLS label, when labeled
	labeled bool
}

// factsOfAll gathers the facts of each address, index-aligned with addrs.
func (r *Resolver) factsOfAll(addrs []packet.Addr) []facts {
	fs := make([]facts, len(addrs))
	for i, a := range addrs {
		ao := r.Obs.Get(a)
		if ao == nil {
			continue
		}
		f := &fs[i]
		f.ao, f.series, f.fp = ao, r.series(ao), ao.FingerprintOf()
		f.usable, _ = SeriesUsable(f.series, r.Direct)
		f.label, f.labeled = ao.ConstantLabel()
	}
	return fs
}

// pairEvidence evaluates a pair of addresses with all available evidence.
func pairEvidence(a, b facts) Evidence {
	var ev Evidence
	if a.ao == nil || b.ao == nil {
		return ev
	}
	// Network Fingerprinting.
	if !obs.CompatibleFingerprints(a.fp, b.fp) {
		ev.Fingerprint = Rejected
	}
	// MPLS labeling (constant labels only).
	if a.labeled && b.labeled {
		if a.label == b.label {
			ev.MPLS = Accepted
		} else {
			ev.MPLS = Rejected
		}
	}
	// Monotonic Bounds Test.
	if a.usable && b.usable {
		ev.MBT = MBTVerdict(a.series, b.series)
	}
	return ev
}

// Set is one refined alias set.
type Set struct {
	Addrs []packet.Addr
	// Outcome is Accepted when the set has two or more addresses bound by
	// positive evidence, Unable when membership could not be determined
	// for at least one pair, Rejected never applies to a surviving set.
	Outcome Outcome
}

// Partition groups the candidate addresses into alias sets using the
// current evidence: each address joins the first set whose every member it
// is compatible with (no rejection); a set is Accepted when every pair
// inside it has positive evidence.
func (r *Resolver) Partition(candidates []packet.Addr) []Set {
	sorted := append([]packet.Addr(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	fs := r.factsOfAll(sorted)

	// Groups list positions in sorted, ascending. verdict holds the outcome
	// of positions i < j, plus one, at j(j-1)/2+i; zero is not yet tested.
	var groups [][]int
	verdict := make([]int8, len(fs)*(len(fs)-1)/2)
	pv := func(i, j int) Outcome {
		v := &verdict[j*(j-1)/2+i]
		if *v == 0 {
			*v = int8(pairEvidence(fs[i], fs[j]).Combine()) + 1
		}
		return Outcome(*v - 1)
	}
	for a := range fs {
		placed := false
		for gi, g := range groups {
			ok := true
			positive := false
			for _, m := range g {
				switch pv(m, a) {
				case Rejected:
					ok = false
				case Accepted:
					positive = true
				}
				if !ok {
					break
				}
			}
			if ok && positive {
				groups[gi] = append(groups[gi], a)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{a})
		}
	}
	out := make([]Set, 0, len(groups))
	for _, g := range groups {
		s := Set{Addrs: make([]packet.Addr, len(g)), Outcome: Accepted}
		for i, m := range g {
			s.Addrs[i] = sorted[m]
		}
		if len(g) < 2 {
			s.Outcome = Unable
			if fs[g[0]].usable {
				// A usable singleton is a positively isolated interface.
				s.Outcome = Accepted
			}
			out = append(out, s)
			continue
		}
		for i := 0; i < len(g) && s.Outcome == Accepted; i++ {
			for j := i + 1; j < len(g); j++ {
				if pv(g[i], g[j]) != Accepted {
					s.Outcome = Unable
					break
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// ClassifySet reports, for an externally given address set (e.g. the other
// tool's router), this resolver's verdict: Accepted if the resolver groups
// the whole set with positive pairwise evidence, Rejected if any pair is
// rejected, Unable otherwise.
func (r *Resolver) ClassifySet(addrs []packet.Addr) Outcome {
	if len(addrs) < 2 {
		return Unable
	}
	fs := r.factsOfAll(addrs)
	sawUnable := false
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			switch pairEvidence(fs[i], fs[j]).Combine() {
			case Rejected:
				return Rejected
			case Unable:
				sawUnable = true
			}
		}
	}
	if sawUnable {
		return Unable
	}
	return Accepted
}

// ProbeRound solicits one round of MBT samples: ProbesPerRound probes per
// address, interleaved round-robin so the series overlap. For indirect
// probing, each address is reached through a (flow, TTL) pair recorded
// during the trace; direct probing sends Echo probes. The direct
// fingerprint probe of Round 1 is sent by FingerprintRound. Returns the
// number of probes sent.
//
// An indirect round resolves each address's record once and grows its
// series by one round's samples (DESIGN.md, "Alias resolution"). Only a
// reply from the address aimed at is recorded, so an address with no
// record or no flow at round start gains neither during the round.
func (r *Resolver) ProbeRound(addrs []packet.Addr) uint64 {
	if r.P == nil {
		return 0
	}
	before := probe.TotalSent(r.P)
	if r.Direct {
		for i := 0; i < r.ProbesPerRound; i++ {
			for _, a := range addrs {
				r.echo(a)
			}
		}
		return probe.TotalSent(r.P) - before
	}
	aimed := make([]*obs.AddrObs, len(addrs))
	for j, a := range addrs {
		if ao := r.Obs.Get(a); ao != nil && len(ao.Flows) > 0 {
			ao.Indirect = slices.Grow(ao.Indirect, r.ProbesPerRound)
			aimed[j] = ao
		}
	}
	for i := 0; i < r.ProbesPerRound; i++ {
		for _, ao := range aimed {
			if ao == nil {
				continue // cannot aim an indirect probe without a flow
			}
			fr := ao.Flows[i%len(ao.Flows)]
			if reply := r.P.Probe(fr.Flow, fr.TTL); reply != nil && reply.From == ao.Addr {
				ao.RecordAimed(reply, probe.TotalSent(r.P))
			}
		}
	}
	return probe.TotalSent(r.P) - before
}

// FingerprintRound sends one direct probe per address to complete Network
// Fingerprinting signatures (the Round 1 extra of Sec 4.2). Returns probes
// sent.
func (r *Resolver) FingerprintRound(addrs []packet.Addr) uint64 {
	if r.P == nil {
		return 0
	}
	before := probe.TotalSent(r.P)
	for _, a := range addrs {
		r.echo(a)
	}
	return probe.TotalSent(r.P) - before
}

// echo sends one direct probe to a and records the reply if a itself
// answered it with an Echo reply.
func (r *Resolver) echo(a packet.Addr) {
	r.seq++
	if reply := r.P.Echo(a, r.seq); reply != nil && reply.IsEchoReply() && reply.From == a {
		r.Obs.RecordEcho(reply, probe.TotalSent(r.P), r.seq)
	}
}

// RoundResult snapshots the refinement after a round; Resolve returns
// round i's at index i.
type RoundResult struct {
	// Sets concatenates the partitions of the candidate groups, in group
	// order.
	Sets   []Set
	Probes uint64 // cumulative probes sent by the resolver
}

// Resolve runs the full schedule over the candidate groups (the
// addresses of each multi-address hop of one trace): Round 0 evaluates
// trace observations only; Round 1 adds the fingerprint probe and the
// first MBT round; Rounds 2..Rounds add MBT rounds. Within a round the
// groups are probed one after the other, and every group is partitioned
// once the round's probing is done. The returned slice holds Rounds+1
// snapshots.
func (r *Resolver) Resolve(groups [][]packet.Addr) []RoundResult {
	partition := func() []Set {
		var sets []Set
		for _, g := range groups {
			sets = append(sets, r.Partition(g)...)
		}
		return sets
	}
	out := []RoundResult{{Sets: partition()}}
	var sent uint64
	for round := 1; round <= r.Rounds; round++ {
		for _, g := range groups {
			if round == 1 && !r.Direct {
				sent += r.FingerprintRound(g)
			}
			sent += r.ProbeRound(g)
		}
		out = append(out, RoundResult{Sets: partition(), Probes: sent})
	}
	return out
}
