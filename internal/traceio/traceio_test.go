package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"mmlpt/internal/fakeroute"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/topo"
)

var (
	tSrc = packet.MustParseAddr("192.0.2.1")
	tDst = packet.MustParseAddr("198.51.100.77")
)

// FormatTopology renders a graph in the text format.
func FormatTopology(g *topo.Graph) string {
	var b strings.Builder
	for h := 0; h < g.NumHops(); h++ {
		fmt.Fprintf(&b, "hop %d:", h)
		for _, id := range g.Hop(h) {
			if a := g.V(id).Addr; a == topo.StarAddr {
				b.WriteString(" *")
			} else {
				fmt.Fprintf(&b, " %s", a)
			}
		}
		b.WriteByte('\n')
	}
	var edges []string
	for i := range g.Vertices {
		u := &g.Vertices[i]
		if u.Addr == topo.StarAddr {
			continue
		}
		for _, w := range g.Succ(topo.VertexID(i)) {
			wa := g.V(w).Addr
			if wa == topo.StarAddr {
				continue
			}
			edges = append(edges, fmt.Sprintf("edge %s %s", u.Addr, wa))
		}
	}
	sort.Strings(edges)
	for _, e := range edges {
		b.WriteString(e)
		b.WriteByte('\n')
	}
	return b.String()
}

// ReadJSONL decodes one trace record per line until EOF.
func ReadJSONL(r io.Reader) ([]*JSONTrace, error) {
	dec := json.NewDecoder(r)
	var out []*JSONTrace
	for {
		var jt JSONTrace
		if err := dec.Decode(&jt); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, &jt)
	}
}

func TestTopologyTextRoundTrip(t *testing.T) {
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.Fig1UnmeshedDiamond(alloc, tDst)
	text := FormatTopology(g)
	parsed, err := ParseTopology(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if !topo.Equal(g, parsed) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", g, parsed)
	}
}

func TestTopologyTextWithStars(t *testing.T) {
	text := `
# a path with a silent hop
hop 0: 10.0.0.1
hop 1: *
hop 2: 10.0.0.3
edge 10.0.0.1 10.0.0.3
`
	// Note the explicit edge spans non-adjacent hops through the star and
	// must be rejected; the auto-connect handles star adjacency.
	_, err := ParseTopology(strings.NewReader(text))
	if err == nil {
		t.Fatal("edge across non-adjacent hops accepted")
	}
	text2 := `
hop 0: 10.0.0.1
hop 1: *
hop 2: 10.0.0.3
`
	g, err := ParseTopology(strings.NewReader(text2))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumHops() != 3 {
		t.Fatalf("hops %d", g.NumHops())
	}
	// The star must be auto-connected both ways.
	star := g.Hop(1)[0]
	if g.InDegree(star) != 1 || g.OutDegree(star) != 1 {
		t.Fatalf("star degrees %d/%d", g.InDegree(star), g.OutDegree(star))
	}
}

func TestTopologyParseErrors(t *testing.T) {
	cases := []string{
		"hop x: 10.0.0.1",
		"hop 0 10.0.0.1",
		"nonsense line",
		"hop 0: 999.0.0.1",
		"hop 0: 10.0.0.1\nedge 10.0.0.1 10.0.0.9",
		"hop -1: 10.0.0.1",
		"hop 2000000000: 10.0.0.1",
		"hop 255: 10.0.0.1",
	}
	for _, c := range cases {
		if _, err := ParseTopology(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestJSONGraphRoundTrip(t *testing.T) {
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	g := fakeroute.MeshedDiamond48(alloc, tDst)
	vs, es := EncodeGraph(g)
	back, err := DecodeGraph(vs, es)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Equal(g, back) {
		t.Fatal("JSON graph round trip mismatch")
	}
}

// TestDecodeGraphRejectsHopOutOfRange: a record's hop reaches
// topo.AddVertex from outside the process, so -1 (which panicked there)
// and a huge hop (which grew the hop list without bound) are errors.
func TestDecodeGraphRejectsHopOutOfRange(t *testing.T) {
	for _, hop := range []int{-1, 255, 2000000000} {
		for _, addr := range []string{"10.0.0.1", "*"} {
			vs := []JSONVertex{{Addr: "10.0.0.9", Hop: 0}, {Addr: addr, Hop: hop}}
			if _, err := DecodeGraph(vs, nil); err == nil || !strings.Contains(err.Error(), "outside [0, 254]") {
				t.Errorf("hop %d addr %s: err = %v, want out-of-range error", hop, addr, err)
			}
		}
	}
	if _, err := DecodeGraph([]JSONVertex{{Addr: "10.0.0.1", Hop: 254}}, nil); err != nil {
		t.Fatalf("hop 254: %v", err)
	}
}

func TestJSONTraceRecord(t *testing.T) {
	net, _ := fakeroute.BuildScenario(1, tSrc, tDst, fakeroute.Fig1UnmeshedDiamond)
	p := probe.NewSimProber(net, tSrc, tDst)
	res := mda.Trace(p, mda.Config{Seed: 1})
	jt := NewJSONTrace(tSrc, tDst, "mda", res)
	if jt.Probes != res.Probes || !jt.Reached {
		t.Fatalf("record %+v", jt)
	}
	if len(jt.Diamonds) != 1 || jt.Diamonds[0].MaxWidth != 4 {
		t.Fatalf("diamonds %+v", jt.Diamonds)
	}
	var buf bytes.Buffer
	if err := jt.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := jt.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Dst != tDst.String() {
		t.Fatalf("read back %d records", len(records))
	}
	back, err := DecodeGraph(records[0].Vertices, records[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Equal(res.Graph, back) {
		t.Fatal("trace graph did not survive JSONL")
	}
}
