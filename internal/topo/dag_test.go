package topo

import "testing"

func TestDAGCore(t *testing.T) {
	t.Parallel()
	var d DAG
	a, b, c := d.AddVertex(), d.AddVertex(), d.AddVertex()
	if d.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", d.NumVertices())
	}
	if !d.AddEdge(a, b) || !d.AddEdge(a, c) || !d.AddEdge(b, c) {
		t.Fatal("fresh edges must report added")
	}
	if d.AddEdge(a, b) {
		t.Fatal("duplicate edge must not report added")
	}
	if d.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", d.NumEdges())
	}
	if !d.HasEdge(a, b) || d.HasEdge(b, a) {
		t.Fatal("HasEdge is directional")
	}
	if got := d.Succ(a); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Succ(a) = %v, want [b c] in insertion order", got)
	}
	if d.OutDegree(a) != 2 || d.InDegree(a) != 0 || d.InDegree(c) != 2 {
		t.Fatal("degree bookkeeping wrong")
	}
}

// TestGraphDelegatesToDAG pins that the hop-indexed Graph and its DAG
// core agree on adjacency: the Graph view is a keying layer, not a
// second edge store.
func TestGraphDelegatesToDAG(t *testing.T) {
	t.Parallel()
	g := New()
	u := g.AddVertex(0, 100)
	w1 := g.AddVertex(1, 101)
	w2 := g.AddVertex(1, 102)
	g.AddEdge(u, w1)
	g.AddEdge(u, w2)
	g.AddEdge(u, w1) // duplicate, ignored
	if g.NumEdges() != 2 || g.OutDegree(u) != 2 || g.InDegree(w1) != 1 {
		t.Fatalf("graph adjacency wrong: edges=%d out=%d in=%d",
			g.NumEdges(), g.OutDegree(u), g.InDegree(w1))
	}
	if len(g.Vertices) != g.dag.NumVertices() {
		t.Fatalf("vertex tables out of sync: %d vs %d", len(g.Vertices), g.dag.NumVertices())
	}
}
