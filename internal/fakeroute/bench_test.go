package fakeroute

import (
	"testing"

	"mmlpt/internal/packet"
)

// BenchmarkProbeRoundTrip measures one full simulated probe round trip at
// the session level: serialize → HandleProbe (parse, forward, craft
// reply). The probe schedule is shaped like the surveys' traffic: a
// stream of flows, each probed at one TTL or at two adjacent ones (an
// MDA node-control mint, then the next hop). perflow is the hot path
// the surveys run on and must report 0 allocs/op in steady state;
// perpacket adds the session RNG draw at the first balancer.
func BenchmarkProbeRoundTrip(b *testing.B) {
	type step struct {
		flow uint16
		ttl  byte
	}
	var sched []step
	for f := 0; len(sched) < 1<<12; f++ {
		ttl := byte(1 + f%6)
		sched = append(sched, step{uint16(f), ttl})
		if f%3 != 0 {
			sched = append(sched, step{uint16(f), ttl + 1})
		}
	}
	run := func(b *testing.B, configure func(*Path)) {
		b.Helper()
		net, path := BuildScenario(1, tSrc, tDst, MeshedDiamond48)
		if configure != nil {
			configure(path)
		}
		s := net.SessionFor(tSrc, tDst)
		var buf []byte
		probe := func(i int) {
			st := sched[i%len(sched)]
			pr := packet.Probe{Src: tSrc, Dst: tDst, FlowID: st.flow, TTL: st.ttl, Checksum: uint16(i%1000 + 1)}
			buf = pr.AppendTo(buf[:0])
			s.HandleProbe(buf)
		}
		// Warm up: compile tables, size scratch buffers.
		for i := range sched {
			probe(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe(i)
		}
	}
	b.Run("perflow", func(b *testing.B) { run(b, nil) })
	b.Run("perpacket", func(b *testing.B) {
		run(b, func(p *Path) { p.LB[p.Graph.Hop(0)[0]] = LBPerPacket })
	})
}
