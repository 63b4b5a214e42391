package core

import (
	"runtime"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
)

// wideAliasNet builds a 1-12-1 diamond whose twelve hop-1 interfaces
// belong to four routers of three, on shared IP ID counters: one
// candidate hop of twelve addresses, each probed in every alias round.
func wideAliasNet() *fakeroute.Network {
	net := fakeroute.NewNetwork(53)
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.NewPathBuilder(alloc).Spread(12).Converge(1).End(tDst)
	var r *fakeroute.Router
	for i, id := range g.Hop(1) {
		if i%3 == 0 {
			r = net.NewRouter()
		}
		net.AddIface(r, g.V(id).Addr)
	}
	net.EnsureIfaces(g, tDst)
	net.AddPath(tSrc, tDst, g)
	return net
}

// TestAliasRoundAllocBytes pins the bytes one multilevel trace of the
// wide candidate hop allocates, at the paper's 10 alias rounds of 30
// probes per address: the fewest over three traces, each on a fresh
// network. An address's indirect series grows once per round by the
// round's samples. Growing it sample by sample, through append's
// doubling, allocates about 26 KB more per trace (on amd64: 237 KB where
// once per round takes 211 KB) and fails the pin.
func TestAliasRoundAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops entries at random, so the byte count is not steady")
	}
	const maxBytes = 224_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var res *Result
	var least uint64
	for i := 0; i < 3; i++ {
		p := probe.NewSimProber(wideAliasNet(), tSrc, tDst)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res = Trace(p, Options{Trace: mda.Config{Seed: 53}})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < least {
			least = b
		}
	}
	if res.IP.Graph.Width(1) != 12 || res.AliasProbes < 10*30*12 {
		t.Fatalf("width %d, %d alias probes: the trace did not probe a 12-address hop for 10 rounds",
			res.IP.Graph.Width(1), res.AliasProbes)
	}
	t.Logf("one multilevel trace: %d B allocated, %d alias probes", least, res.AliasProbes)
	if least > maxBytes {
		t.Errorf("one multilevel trace allocated %d B, pinned at most %d", least, maxBytes)
	}
}
