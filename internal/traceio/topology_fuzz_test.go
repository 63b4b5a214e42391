package traceio

import (
	"slices"
	"strings"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// Fuzz target for the topology text reader (cmd/mmlpt -topology). For
// arbitrary text ParseTopology must not panic, and a graph it accepts
// must hold: every edge spans adjacent hops, no hop holds an address
// twice, Lookup answers each address's first-added vertex, and every
// "edge A B" line is an edge between the vertices Lookup names for A and
// B. The reader resolves edges through its own index, so the last check
// holds it to Lookup's rule. CI's fuzz-smoke job runs it for a short
// budget; locally:
//
//	go test -run='^$' -fuzz='^FuzzParseTopology$' -fuzztime=30s ./internal/traceio
func FuzzParseTopology(f *testing.F) {
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	f.Add(FormatTopology(fakeroute.Fig1UnmeshedDiamond(alloc, tDst)))
	f.Add("hop 0: 10.0.0.1\nhop 1: *\nhop 2: 10.0.0.3\n")
	// One address at two hops, written twice at the second: an edge
	// names the vertex of the line read first.
	f.Add("hop 1: 10.0.0.7\nhop 0: 10.0.0.1\nhop 2: 10.0.0.7 10.0.0.7 *\n" +
		"hop 3: 10.0.0.9\nedge 10.0.0.1 10.0.0.7\n")
	f.Add("hop 1: 10.0.0.7\nhop 0: 10.0.0.1\nhop 2: 10.0.0.7\nedge 10.0.0.7 10.0.0.9\nhop 3: 10.0.0.9\n")
	f.Add("hop 0: 10.0.0.1\nhop 1: 10.0.0.2\nedge 10.0.0.1 10.0.0.2\nedge 10.0.0.1 10.0.0.2\n")
	f.Add("hop 0: 10.0.0.1\nedge 10.0.0.1 10.0.0.9")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseTopology(strings.NewReader(text))
		if err != nil {
			return
		}
		first := make(map[packet.Addr]topo.VertexID)
		for i := range g.Vertices {
			u := topo.VertexID(i)
			if a := g.V(u).Addr; a != topo.StarAddr {
				if _, ok := first[a]; !ok {
					first[a] = u
				}
			}
			for _, w := range g.Succ(u) {
				if g.V(w).Hop != g.V(u).Hop+1 {
					t.Fatalf("edge %d>%d spans hops %d>%d", u, w, g.V(u).Hop, g.V(w).Hop)
				}
			}
		}
		for h := 0; h < g.NumHops(); h++ {
			seen := make(map[packet.Addr]bool)
			for _, id := range g.Hop(h) {
				v := g.V(id)
				if v.Hop != h {
					t.Fatalf("vertex %d listed at hop %d, holds hop %d", id, h, v.Hop)
				}
				if v.Addr != topo.StarAddr && seen[v.Addr] {
					t.Fatalf("hop %d holds %s twice", h, v.Addr)
				}
				seen[v.Addr] = true
			}
		}
		for a, id := range first {
			if got := g.Lookup(a); got != id {
				t.Fatalf("Lookup(%s) = %d, want %d, the first added", a, got, id)
			}
		}
		for _, line := range strings.Split(text, "\n") {
			fields := strings.Fields(line)
			if len(fields) != 3 || fields[0] != "edge" {
				continue
			}
			from, err1 := packet.ParseAddr(fields[1])
			to, err2 := packet.ParseAddr(fields[2])
			if err1 != nil || err2 != nil {
				t.Fatalf("accepted %q", line)
			}
			if u, w := g.Lookup(from), g.Lookup(to); !slices.Contains(g.Succ(u), w) {
				t.Fatalf("line %q: no edge %d>%d", line, u, w)
			}
		}
	})
}
