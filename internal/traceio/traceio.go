// Package traceio serializes topologies and trace results: a line-based
// text format for ground-truth topologies (consumed by cmd/mmlpt and
// cmd/fakeroute, so users can validate against their own topologies, as
// the paper's Fakeroute accepted topology files), and a JSON schema for
// trace results (one object per trace, suitable for JSONL survey dumps —
// in the spirit of the "better schema for paris-traceroute" the paper
// cites for M-Lab). It also owns the cross-trace atlas's snapshot file
// format (atlas.go): one incremental writer (AtlasStreamEncoder) and
// one random-access reader (AtlasReader, with Verify for whole-file
// validation).
package traceio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mmlpt/internal/alias"
	"mmlpt/internal/core"
	"mmlpt/internal/mda"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
)

// Topology text format:
//
//	# comment
//	hop 0: 10.0.0.1
//	hop 1: 10.0.0.2 10.0.0.3
//	hop 2: *
//	edge 10.0.0.1 10.0.0.2
//	edge 10.0.0.1 10.0.0.3
//
// Stars are written "*" and are positional: "edge * X" is not supported
// (edges to and from stars are implied by adjacency when omitted); edges
// between named vertices are explicit.

// ParseTopology reads the text format. Edges between a hop's stars and
// adjacent hops are auto-connected (full bipartite to the star), matching
// how a tracer experiences a silent hop.
func ParseTopology(r io.Reader) (*topo.Graph, error) {
	g := topo.New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	type edge struct{ from, to packet.Addr }
	var edges []edge
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "hop "):
			rest := strings.TrimPrefix(line, "hop ")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("traceio: line %d: missing colon", lineNo)
			}
			var h int
			if _, err := fmt.Sscanf(rest[:colon], "%d", &h); err != nil {
				return nil, fmt.Errorf("traceio: line %d: bad hop index: %v", lineNo, err)
			}
			// Hop h is probed at TTL h+1, and a TTL is one byte.
			if h < 0 || h >= 255 {
				return nil, fmt.Errorf("traceio: line %d: hop index %d outside [0, 254]", lineNo, h)
			}
			for _, tok := range strings.Fields(rest[colon+1:]) {
				if tok == "*" {
					g.AddVertex(h, topo.StarAddr)
					continue
				}
				a, err := packet.ParseAddr(tok)
				if err != nil {
					return nil, fmt.Errorf("traceio: line %d: %v", lineNo, err)
				}
				g.AddVertex(h, a)
			}
		case fields[0] == "edge" && len(fields) == 3:
			from, err := packet.ParseAddr(fields[1])
			if err != nil {
				return nil, fmt.Errorf("traceio: line %d: %v", lineNo, err)
			}
			to, err := packet.ParseAddr(fields[2])
			if err != nil {
				return nil, fmt.Errorf("traceio: line %d: %v", lineNo, err)
			}
			edges = append(edges, edge{from, to})
		default:
			return nil, fmt.Errorf("traceio: line %d: unrecognized %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range edges {
		u := g.Lookup(e.from)
		w := g.Lookup(e.to)
		if u == topo.None || w == topo.None {
			return nil, fmt.Errorf("traceio: edge %s>%s references unknown vertex", e.from, e.to)
		}
		if g.V(w).Hop != g.V(u).Hop+1 {
			return nil, fmt.Errorf("traceio: edge %s>%s does not span adjacent hops", e.from, e.to)
		}
		g.AddEdge(u, w)
	}
	// Auto-connect stars to every vertex of the adjacent hops.
	for i := range g.Vertices {
		v := topo.VertexID(i)
		if g.V(v).Addr != topo.StarAddr {
			continue
		}
		h := g.V(v).Hop
		for _, u := range g.Hop(h - 1) {
			g.AddEdge(u, v)
		}
		for _, w := range g.Hop(h + 1) {
			g.AddEdge(v, w)
		}
	}
	return g, nil
}

// JSON schema for trace results.

// JSONVertex is one vertex of the serialized topology.
type JSONVertex struct {
	Addr string `json:"addr"` // "*" for stars
	Hop  int    `json:"hop"`
}

// JSONEdge is one edge, by vertex index.
type JSONEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// JSONDiamond summarizes a diamond.
type JSONDiamond struct {
	Div         string  `json:"div"`
	Conv        string  `json:"conv"`
	MaxLength   int     `json:"max_length"`
	MaxWidth    int     `json:"max_width"`
	Asymmetry   int     `json:"max_width_asymmetry"`
	Meshed      bool    `json:"meshed"`
	MeshedRatio float64 `json:"ratio_meshed_hops"`
}

// JSONRouter is one resolved alias set.
type JSONRouter struct {
	Addrs []string `json:"addrs"`
}

// JSONTrace is the serialized result of one trace.
type JSONTrace struct {
	Src         string        `json:"src"`
	Dst         string        `json:"dst"`
	Algorithm   string        `json:"algorithm"`
	Probes      uint64        `json:"probes"`
	Reached     bool          `json:"reached"`
	Switched    bool          `json:"switched_to_mda,omitempty"`
	Vertices    []JSONVertex  `json:"vertices"`
	Edges       []JSONEdge    `json:"edges"`
	Diamonds    []JSONDiamond `json:"diamonds,omitempty"`
	Routers     []JSONRouter  `json:"routers,omitempty"`
	AliasProbes uint64        `json:"alias_probes,omitempty"`
}

// EncodeGraph fills the vertex and edge lists from a graph.
func EncodeGraph(g *topo.Graph) ([]JSONVertex, []JSONEdge) {
	vs := make([]JSONVertex, len(g.Vertices))
	index := make(map[topo.VertexID]int, len(g.Vertices))
	for i := range g.Vertices {
		v := &g.Vertices[i]
		s := "*"
		if v.Addr != topo.StarAddr {
			s = v.Addr.String()
		}
		vs[i] = JSONVertex{Addr: s, Hop: v.Hop}
		index[topo.VertexID(i)] = i
	}
	var es []JSONEdge
	for i := range g.Vertices {
		for _, w := range g.Succ(topo.VertexID(i)) {
			es = append(es, JSONEdge{From: i, To: index[w]})
		}
	}
	return vs, es
}

// DecodeGraph rebuilds a graph from the vertex and edge lists.
func DecodeGraph(vs []JSONVertex, es []JSONEdge) (*topo.Graph, error) {
	g := topo.New()
	ids := make([]topo.VertexID, len(vs))
	for i, v := range vs {
		if v.Addr == "*" {
			ids[i] = g.AddVertex(v.Hop, topo.StarAddr)
			continue
		}
		a, err := packet.ParseAddr(v.Addr)
		if err != nil {
			return nil, err
		}
		ids[i] = g.AddVertex(v.Hop, a)
	}
	for _, e := range es {
		if e.From < 0 || e.From >= len(ids) || e.To < 0 || e.To >= len(ids) {
			return nil, fmt.Errorf("traceio: edge index out of range")
		}
		g.AddEdge(ids[e.From], ids[e.To])
	}
	return g, nil
}

// NewJSONTrace builds the serialized record for an IP-level result.
func NewJSONTrace(src, dst packet.Addr, algorithm string, res *mda.Result) *JSONTrace {
	vs, es := EncodeGraph(res.Graph)
	jt := &JSONTrace{
		Src: src.String(), Dst: dst.String(), Algorithm: algorithm,
		Probes: res.Probes, Reached: res.ReachedDst, Switched: res.SwitchedToMDA,
		Vertices: vs, Edges: es,
	}
	for _, d := range res.Graph.Diamonds() {
		m := d.ComputeMetrics()
		div, conv := "*", "*"
		if d.DivAddr != topo.StarAddr {
			div = d.DivAddr.String()
		}
		if d.ConvAddr != topo.StarAddr {
			conv = d.ConvAddr.String()
		}
		jt.Diamonds = append(jt.Diamonds, JSONDiamond{
			Div: div, Conv: conv,
			MaxLength: m.MaxLength, MaxWidth: m.MaxWidth,
			Asymmetry: m.MaxWidthAsymmetry, Meshed: m.Meshed,
			MeshedRatio: m.RatioMeshedHops,
		})
	}
	return jt
}

// AttachMultilevel adds the router-level results to a record.
func (jt *JSONTrace) AttachMultilevel(ml *core.Result) {
	jt.AliasProbes = ml.AliasProbes
	for _, s := range alias.RouterSets(ml.Sets) {
		r := JSONRouter{}
		for _, a := range s.Addrs {
			r.Addrs = append(r.Addrs, a.String())
		}
		jt.Routers = append(jt.Routers, r)
	}
}

// WriteJSONL appends the record as one JSON line.
func (jt *JSONTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(jt)
}
