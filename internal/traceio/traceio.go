// Package traceio owns every file format: a line-based text format for
// ground-truth topologies (consumed by cmd/mmlpt -topology, so users
// can trace their own topologies, as the paper's Fakeroute accepted
// topology files), the one trace record every tool
// writes as JSON lines and every other layer holds typed (SurveyRecord,
// in the spirit of the "better schema for paris-traceroute" the paper
// cites for M-Lab), and the cross-trace atlas's snapshot file format
// (atlas.go): one incremental writer (AtlasStreamEncoder) and one
// random-access reader (AtlasReader, with Verify for whole-file
// validation).
package traceio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

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
// how a tracer experiences a silent hop. An edge's address names the
// first vertex added with it, as Graph.Lookup would answer.
func ParseTopology(r io.Reader) (*topo.Graph, error) {
	g := topo.New()
	// first indexes each address's first-added vertex, so that edges
	// resolve in constant time; Graph.Lookup scans the vertex table.
	first := make(map[packet.Addr]topo.VertexID)
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
				v := g.AddVertex(h, a)
				if _, ok := first[a]; !ok {
					first[a] = v
				}
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
		u, okU := first[e.from]
		w, okW := first[e.to]
		if !okU || !okW {
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
