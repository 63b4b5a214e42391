// Package fakeroute simulates multipath route topologies for validating
// multipath tracing tools, reproducing the paper's Fakeroute (Sec 3) and
// extending it with the router behaviours the multilevel (alias
// resolution) experiments need.
//
// A Network owns routers and interfaces and, per (source, destination)
// pair, a ground-truth topology DAG. The tracer under test hands the
// network fully-serialized probe packets; the network parses the wire
// bytes, walks the probe through the topology — emulating per-flow load
// balancing with a deterministic flow hash — and crafts real ICMP reply
// bytes (Time Exceeded, Port Unreachable, or Echo Reply) that the tracer
// must parse. Nothing above the wire format is mocked, so a tool validated
// here exercises the same packet paths it would against a kernel raw
// socket. Where the paper's C++ Fakeroute used libnetfilter-queue to
// capture packets and libtins to craft replies, this implementation is an
// in-process transport with its own IPv4/UDP/ICMP codec
// (mmlpt/internal/packet).
package fakeroute

import (
	"mmlpt/internal/nprand"
	"mmlpt/internal/packet"
)

// IPIDMode selects how a router generates the IP identification field of
// its replies. The modes cover every behaviour the paper's alias
// resolution evaluation encountered (Sec 4.2 and Sec 5.2).
type IPIDMode int

const (
	// IPIDShared uses one router-wide counter for all reply families: the
	// behaviour the Monotonic Bounds Test relies on. Aliases resolve via
	// both indirect and direct probing.
	IPIDShared IPIDMode = iota
	// IPIDPerInterface keeps an independent counter per interface for
	// Time Exceeded replies but a router-wide counter for Echo replies:
	// indirect probing rejects the alias while direct probing accepts it
	// (the paper's explanation for Table 2's 14.4% cell).
	IPIDPerInterface
	// IPIDConstantZero answers every probe with IP ID 0: no time series
	// can be built, so the MBT is unable to conclude (98.6% of MMLPT's
	// inconclusive cases).
	IPIDConstantZero
	// IPIDRandom draws a fresh random IP ID per reply: a non-monotonic
	// series, also inconclusive (1.4% of MMLPT's inconclusive cases).
	IPIDRandom
	// IPIDEchoCopy copies the probe's IP ID into Echo replies (22.8% of
	// MIDAR's inconclusive cases) while Time Exceeded replies use the
	// shared counter.
	IPIDEchoCopy
	// IPIDIndirectZero answers Time Exceeded with IP ID 0 but keeps a
	// shared counter for Echo replies (a common Juniper behaviour): the
	// indirect MBT is unable while direct probing accepts — the paper's
	// explanation for the 20.3% MIDAR-accept / MMLPT-unable cell of
	// Table 2.
	IPIDIndirectZero
)

// Router models one simulated router.
type Router struct {
	ID int
	// IPID selects the identification-counter architecture.
	IPID IPIDMode
	// Velocity is the background counter advance per simulated tick
	// (models other traffic through the router). Zero means the counter
	// advances only when we sample it.
	Velocity float64
	// InitialTTLExceeded is the initial TTL of Time Exceeded replies
	// (network fingerprinting signature component). Typical values: 255
	// (Cisco/Juniper) or 64 (Linux-based).
	InitialTTLExceeded byte
	// InitialTTLEcho is the initial TTL of Echo replies.
	InitialTTLEcho byte
	// RespondsToEcho reports whether direct (ping) probes are answered.
	RespondsToEcho bool
	// RateLimit, if positive, is the maximum replies per RatePeriod ticks
	// (token bucket). Zero disables rate limiting.
	RateLimit  int
	RatePeriod uint64

	// sharedCtr is the router-wide counter's initial phase, fixed at
	// construction; each trace Session advances its own view of it.
	sharedCtr uint16
}

// Iface is one router interface.
type Iface struct {
	Addr   packet.Addr
	Router *Router
	// MPLSLabel, if nonzero, is attached to Time Exceeded replies from
	// this interface as an RFC 4950 extension: the interface sits in an
	// MPLS tunnel. Interfaces of the same router in the same tunnel carry
	// the same label.
	MPLSLabel uint32
	// labelFlaps: if true the label changes over time, making it unusable
	// for alias resolution (the constancy requirement of Sec 4.1).
	LabelFlaps bool

	// ctr is the per-interface counter's initial phase, fixed at
	// construction; each trace Session advances its own view of it.
	ctr uint16
}

// nextIPID produces the IP ID for a reply from iface at tick now, over
// this session's view of the router's counters. indirect distinguishes
// Time Exceeded (true) from Echo (false) replies. probeID is the IP ID of
// the probe being answered.
func (s *Session) nextIPID(ifc *Iface, indirect bool, probeID uint16, now uint64) uint16 {
	r := ifc.Router
	switch r.IPID {
	case IPIDShared:
		return s.advanceRouterCtr(r, now)
	case IPIDPerInterface:
		if indirect {
			return s.advanceIfaceCtr(ifc, now)
		}
		return s.advanceRouterCtr(r, now)
	case IPIDConstantZero:
		return 0
	case IPIDRandom:
		return uint16(s.rng.Uint64())
	case IPIDEchoCopy:
		if indirect {
			return s.advanceRouterCtr(r, now)
		}
		return probeID
	case IPIDIndirectZero:
		if indirect {
			return 0
		}
		return s.advanceRouterCtr(r, now)
	default:
		return s.advanceRouterCtr(r, now)
	}
}

// advanceRouterCtr samples the session's view of r's shared counter.
func (s *Session) advanceRouterCtr(r *Router, now uint64) uint16 {
	v := s.routers[r]
	if v == nil {
		v = &ctrView{ctr: r.sharedCtr}
		s.routers[r] = v
	}
	return advanceCtr(v, r.Velocity, now)
}

// advanceIfaceCtr samples the session's view of ifc's own counter.
func (s *Session) advanceIfaceCtr(ifc *Iface, now uint64) uint16 {
	v := s.ifaces[ifc]
	if v == nil {
		v = &ctrView{ctr: ifc.ctr}
		s.ifaces[ifc] = v
	}
	return advanceCtr(v, ifc.Router.Velocity, now)
}

// advanceCtr advances a counter view to tick now: one increment for the
// sample itself plus the background velocity accrued since the last one.
func advanceCtr(v *ctrView, velocity float64, now uint64) uint16 {
	delta := uint16(1)
	if velocity > 0 && now > v.last {
		delta += uint16(velocity * float64(now-v.last))
	}
	v.last = now
	v.ctr += delta
	return v.ctr
}

// allowReply applies the router's token-bucket rate limit at tick now,
// over this session's view of the bucket.
func (s *Session) allowReply(r *Router, now uint64) bool {
	if r.RateLimit <= 0 {
		return true
	}
	b := s.buckets[r]
	if b == nil {
		// The bucket starts full: a quiet router answers an initial burst.
		b = &bucket{tokens: float64(r.RateLimit), tick: now}
		s.buckets[r] = b
	}
	period := r.RatePeriod
	if period == 0 {
		period = 100
	}
	rate := float64(r.RateLimit) / float64(period)
	if now > b.tick {
		b.tokens += rate * float64(now-b.tick)
		if cap := float64(r.RateLimit); b.tokens > cap {
			b.tokens = cap
		}
		b.tick = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// effectiveLabel returns the MPLS label to attach now, honouring flapping.
func (ifc *Iface) effectiveLabel(now uint64) uint32 {
	if ifc.MPLSLabel == 0 {
		return 0
	}
	if ifc.LabelFlaps {
		// A flapping label changes every ~64 ticks, deterministically per
		// interface so repeated probes within a burst may still agree.
		return ifc.MPLSLabel + uint32(nprand.FlowHash(uint64(ifc.Addr), now/64)%1024)
	}
	return ifc.MPLSLabel
}
