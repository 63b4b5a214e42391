package mda

import (
	"reflect"
	"testing"

	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

// scriptProber answers traceroute probes from a table, so the session's
// flow tables can be driven into exact, hand-checked states. A missing
// entry is silence; the destination address answers Port Unreachable.
type scriptProber struct {
	dst  packet.Addr
	at   map[probe.Spec]packet.Addr
	sent uint64
}

func (p *scriptProber) Probe(flow uint16, ttl int) *packet.Reply {
	p.sent++
	a, ok := p.at[probe.Spec{FlowID: flow, TTL: ttl}]
	if !ok {
		return nil
	}
	if a == p.dst {
		return &packet.Reply{From: a, Type: packet.ICMPTypeDestUnreachable, Code: packet.ICMPCodePortUnreachable}
	}
	return &packet.Reply{From: a, Type: packet.ICMPTypeTimeExceeded}
}

func (p *scriptProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	out := make([]*packet.Reply, len(specs))
	for i, sp := range specs {
		out[i] = p.Probe(sp.FlowID, sp.TTL)
	}
	return out
}

func (p *scriptProber) Echo(packet.Addr, uint16) *packet.Reply { return nil }
func (p *scriptProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	return make([]*packet.Reply, len(specs))
}
func (p *scriptProber) Sent() (uint64, uint64) { return p.sent, 0 }
func (p *scriptProber) Dst() packet.Addr       { return p.dst }

var (
	addrA = packet.AddrFrom4(10, 0, 0, 1)
	addrB = packet.AddrFrom4(10, 0, 0, 2)
	addrC = packet.AddrFrom4(10, 0, 0, 3)
	addrD = packet.AddrFrom4(10, 9, 9, 9) // destination
)

// scriptedSession probes a fixed (flow, hop) list through a scripted
// network: hop 0 is A for every flow; hop 1 balances flows over B and C,
// with flows 7 and 300 silent there; hop 2 is the destination.
func scriptedSession() *Session {
	at := map[probe.Spec]packet.Addr{}
	for _, f := range []uint16{40000, 7, 300, 12, 5, 65000} {
		at[probe.Spec{FlowID: f, TTL: 1}] = addrA
		at[probe.Spec{FlowID: f, TTL: 3}] = addrD
	}
	at[probe.Spec{FlowID: 40000, TTL: 2}] = addrB
	at[probe.Spec{FlowID: 12, TTL: 2}] = addrC
	at[probe.Spec{FlowID: 5, TTL: 2}] = addrB
	at[probe.Spec{FlowID: 65000, TTL: 2}] = addrC
	s := NewSession(&scriptProber{dst: addrD, at: at}, Config{Seed: 1})
	// Hop 0 in a deliberately unsorted flow order; hop 1 by batch, with the
	// two silent flows in the middle; flow 12 also reaches the destination.
	for _, f := range []uint16{40000, 7, 300, 12} {
		s.probeHop(0, f)
	}
	s.probeHopBatch(1, []uint16{40000, 7, 12, 300, 5, 65000})
	s.probeHop(2, 12)
	return s
}

func TestSessionTablesVertexAt(t *testing.T) {
	s := scriptedSession()
	a, b, c := s.g.Lookup(addrA), s.g.Lookup(addrB), s.g.Lookup(addrC)
	d := s.g.Lookup(addrD)
	if a == topo.None || b == topo.None || c == topo.None || d == topo.None {
		t.Fatalf("vertices missing:\n%s", s.g)
	}
	cases := []struct {
		name string
		hop  int
		flow uint16
		want topo.VertexID
		ok   bool
	}{
		{"hop0 first flow", 0, 40000, a, true},
		{"hop0 last flow", 0, 12, a, true},
		{"hop0 flow never probed there", 0, 5, topo.None, false},
		{"hop1 lands on B", 1, 40000, b, true},
		{"hop1 lands on C", 1, 65000, c, true},
		{"hop1 silent flow is unknown until adopted", 1, 7, topo.None, false},
		{"hop2 destination", 2, 12, d, true},
		{"hop2 other flow unknown", 2, 40000, topo.None, false},
		{"flow never seen by the session", 1, 999, topo.None, false},
		{"flow above the mintable range", 1, 65535, topo.None, false},
		{"negative hop", -1, 12, topo.None, false},
		{"hop beyond the tables", 9, 12, topo.None, false},
	}
	for _, tc := range cases {
		v, ok := s.vertexAt(tc.hop, tc.flow)
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("%s: vertexAt(%d, %d) = (%v, %t), want (%v, %t)", tc.name, tc.hop, tc.flow, v, ok, tc.want, tc.ok)
		}
	}
}

func TestSessionTablesFlowsOf(t *testing.T) {
	s := scriptedSession()
	a, b, c := s.g.Lookup(addrA), s.g.Lookup(addrB), s.g.Lookup(addrC)
	// Arrival order, not flow order; no duplicates on re-probing.
	s.probeHop(0, 300)
	s.probeHop(1, 5)
	cases := []struct {
		name string
		v    topo.VertexID
		want []uint16
	}{
		{"A: arrival order", a, []uint16{40000, 7, 300, 12}},
		{"B", b, []uint16{40000, 5}},
		{"C", c, []uint16{12, 65000}},
		{"destination", s.g.Lookup(addrD), []uint16{12}},
	}
	for _, tc := range cases {
		if got := s.flowsOf(tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: flowsOf = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := s.flowsOf(source); len(got) != 0 {
		t.Errorf("flowsOf(source) = %v, want none", got)
	}

	// Adopting the silent flows: sorted by flow identifier, once each even
	// when adopted twice, and from then on vertexAt resolves them.
	star := s.g.AddVertex(1, topo.StarAddr)
	s.adoptStarFlows(1, star)
	s.adoptStarFlows(1, star)
	if got, want := s.flowsOf(star), []uint16{7, 300}; !reflect.DeepEqual(got, want) {
		t.Errorf("flowsOf(star) = %v, want %v", got, want)
	}
	if v, ok := s.vertexAt(1, 300); !ok || v != star {
		t.Errorf("vertexAt(1, 300) after adoption = (%v, %t), want the star", v, ok)
	}
}

// TestSessionTablesFlowSeenAtTwoVertices: under per-packet balancing one
// flow can answer from two vertices of the same hop. It then belongs to
// both flow lists, once each, while vertexAt reports the latest landing.
func TestSessionTablesFlowSeenAtTwoVertices(t *testing.T) {
	p := &scriptProber{dst: addrD, at: map[probe.Spec]packet.Addr{{FlowID: 9, TTL: 2}: addrB}}
	s := NewSession(p, Config{Seed: 1})
	s.probeHop(1, 9)
	p.at[probe.Spec{FlowID: 9, TTL: 2}] = addrC
	s.probeHop(1, 9)
	p.at[probe.Spec{FlowID: 9, TTL: 2}] = addrB
	s.probeHop(1, 9)
	b, c := s.g.Lookup(addrB), s.g.Lookup(addrC)
	if got := s.flowsOf(b); !reflect.DeepEqual(got, []uint16{9}) {
		t.Errorf("flowsOf(B) = %v, want [9]", got)
	}
	if got := s.flowsOf(c); !reflect.DeepEqual(got, []uint16{9}) {
		t.Errorf("flowsOf(C) = %v, want [9]", got)
	}
	if v, ok := s.vertexAt(1, 9); !ok || v != b {
		t.Errorf("vertexAt(1, 9) = (%v, %t), want B (the latest landing)", v, ok)
	}
}

func TestSessionTablesHopLandings(t *testing.T) {
	s := scriptedSession()
	star := s.g.AddVertex(1, topo.StarAddr)
	s.adoptStarFlows(1, star)
	cases := []struct {
		name string
		hop  int
		want []FlowLanding
	}{
		{"ascending flow order", 0, []FlowLanding{{7, addrA}, {12, addrA}, {300, addrA}, {40000, addrA}}},
		{"stars excluded", 1, []FlowLanding{{5, addrB}, {12, addrC}, {40000, addrB}, {65000, addrC}}},
		{"destination hop", 2, []FlowLanding{{12, addrD}}},
		{"unknown hop", 7, nil},
		{"negative hop", -1, nil},
	}
	for _, tc := range cases {
		got := s.HopLandings(tc.hop)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: HopLandings(%d) = %v, want %v", tc.name, tc.hop, got, tc.want)
		}
	}
}
