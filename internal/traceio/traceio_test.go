package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// recordLine encodes one record the way every writer does.
func recordLine(t testing.TB, rec *SurveyRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// exampleGraph is the record layout's worked example: a two-wide hop, a
// star, and the destination.
func exampleGraph() *topo.Graph {
	g := topo.New()
	a := g.AddVertex(0, packet.MustParseAddr("10.0.0.7"))
	b := g.AddVertex(1, packet.MustParseAddr("10.0.2.233"))
	c := g.AddVertex(1, packet.MustParseAddr("10.0.2.234"))
	s := g.AddVertex(2, topo.StarAddr)
	d := g.AddVertex(3, packet.MustParseAddr("203.0.113.4"))
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, s)
	g.AddEdge(c, s)
	g.AddEdge(s, d)
	return g
}

// TestRecordLayout pins the record's JSON line: hop-major address lists
// with "*" for a star, and successor lists by hop-major vertex index.
func TestRecordLayout(t *testing.T) {
	rec := NewSurveyRecord(tSrc, tDst, "mda", exampleGraph())
	rec.Probes, rec.Reached = 42, true
	want := `{"pair_index":0,"has_lb":false,"src":"192.0.2.1","dst":"198.51.100.77","algorithm":"mda","probes":42,"reached":true,` +
		`"hops":[["10.0.0.7"],["10.0.2.233","10.0.2.234"],["*"],["203.0.113.4"]],"succ":[[1,2],[3],[3],[4],[]]}` + "\n"
	if got := string(recordLine(t, rec)); got != want {
		t.Fatalf("record line\n got %s\nwant %s", got, want)
	}
}

// TestJSONGraphRoundTrip: a trace survives the record's JSON line with
// its scalars, its hops, its per-hop order and its successor order,
// including an empty hop and an edge between non-adjacent hops.
func TestJSONGraphRoundTrip(t *testing.T) {
	alloc := fakeroute.NewAddrAllocator(packet.AddrFrom4(10, 0, 0, 1))
	skip := exampleGraph()
	far := skip.AddVertex(5, packet.MustParseAddr("10.9.9.9"))
	skip.AddEdge(skip.Hop(0)[0], far)
	for name, want := range map[string]*topo.Graph{
		"meshed48": fakeroute.MeshedDiamond48(alloc, tDst),
		"skip":     skip,
	} {
		rec := NewSurveyRecord(tSrc, tDst, "mda", want)
		rec.Probes, rec.Reached = 42, true
		line := recordLine(t, rec)
		var back *SurveyRecord
		if err := DecodeSurveyRecords(bytes.NewReader(line), func(sr *SurveyRecord) error { back = sr; return nil }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Dst != tDst.String() || back.Probes != rec.Probes || back.Reached != rec.Reached {
			t.Fatalf("%s: scalars did not survive: %+v", name, back)
		}
		g, err := back.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !topo.Equal(want, g) {
			t.Fatalf("%s: graph round trip mismatch", name)
		}
		rec = NewSurveyRecord(tSrc, tDst, "mda", g)
		rec.Probes, rec.Reached = back.Probes, back.Reached
		if again := recordLine(t, rec); !bytes.Equal(line, again) {
			t.Fatalf("%s: re-encoding the decoded graph changed the record:\n%s\n%s", name, line, again)
		}
	}
}

// TestJSONTraceRecord: a real MDA trace of Fig 1 keeps its scalars, its
// reached flag and its one 4-wide diamond through a two-record JSONL
// stream.
func TestJSONTraceRecord(t *testing.T) {
	net, _ := fakeroute.BuildScenario(1, tSrc, tDst, fakeroute.Fig1UnmeshedDiamond)
	res := mda.Trace(probe.NewSimProber(net, tSrc, tDst), mda.Config{Seed: 1})
	rec := NewSurveyRecord(tSrc, tDst, "mda", res.Graph)
	rec.Probes, rec.Reached = res.Probes, res.ReachedDst
	if !rec.Reached {
		t.Fatalf("record %+v", rec)
	}
	stream := append(recordLine(t, rec), recordLine(t, rec)...)
	var records []*SurveyRecord
	if err := DecodeSurveyRecords(bytes.NewReader(stream), func(sr *SurveyRecord) error {
		records = append(records, sr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Dst != tDst.String() {
		t.Fatalf("read back %d records", len(records))
	}
	back, err := records[0].Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Equal(res.Graph, back) {
		t.Fatal("trace graph did not survive JSONL")
	}
	if ds := back.Diamonds(); len(ds) != 1 || ds[0].MaxWidth() != 4 {
		t.Fatalf("diamonds %+v", ds)
	}
}

// TestRecordRejectsMalformed: records arrive from outside the process
// (shipped units, replayed logs), so an address out of range or not in
// its canonical text, more hops than a TTL allows, a successor index
// naming no vertex, and a successor list count that disagrees with the
// vertices are all errors, each provoked by a line that is canonical in
// every other respect — from DecodeSurveyRecords and, for the
// structural ones, from Graph alike.
func TestRecordRejectsMalformed(t *testing.T) {
	good := string(recordLine(t, &SurveyRecord{
		PairIndex: 1,
		Hops:      addrLists{{ip("10.0.0.1")}, {topo.StarAddr}},
		Succ:      [][]int32{{1}, {}},
		Routers:   addrLists{{ip("10.0.0.1"), ip("10.0.0.2")}},
	}))
	deep := &SurveyRecord{Hops: make(addrLists, 256), Succ: [][]int32{}}
	for h := range deep.Hops {
		deep.Hops[h] = []packet.Addr{}
	}
	for _, c := range []struct{ name, line, want string }{
		{"address", strings.Replace(good, `"10.0.0.1"]`, `"10.0.0.300"]`, 1), `packet: octet out of range in "10.0.0.300"`},
		{"address text", strings.Replace(good, `"10.0.0.1"]`, `"10.0.0.01"]`, 1), `packet: "10.0.0.01" is not a canonical dotted quad`},
		{"hops", string(recordLine(t, deep)), "at most 255"},
		{"negative successor", strings.Replace(good, `[[1]`, `[[-1]`, 1), "outside [0, 2)"},
		{"successor past the end", strings.Replace(good, `[[1]`, `[[2]`, 1), "outside [0, 2)"},
		{"successor lists", strings.Replace(good, `[[1],[]]`, `[[1]]`, 1), "1 successor lists for 2 vertices"},
	} {
		if c.line == good {
			t.Fatalf("%s: the line is unchanged", c.name)
		}
		err := DecodeSurveyRecords(strings.NewReader(c.line), func(*SurveyRecord) error { return nil })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode err = %v, want %q", c.name, err, c.want)
		}
		var sr SurveyRecord
		if json.Unmarshal([]byte(c.line), &sr) != nil {
			continue // an unparsable address never becomes a record
		}
		if _, err := sr.Graph(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Graph err = %v, want %q", c.name, err, c.want)
		}
	}
	deep.Hops = deep.Hops[:255]
	if _, err := deep.Graph(); err != nil {
		t.Fatalf("255 hops: %v", err)
	}
	if err := DecodeSurveyRecords(strings.NewReader(good), func(*SurveyRecord) error { return nil }); err != nil {
		t.Fatalf("well-formed record rejected: %v", err)
	}
}
