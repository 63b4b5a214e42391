package topo

// DAG is the adjacency core under the hop-indexed per-trace Graph: a
// growable table of anonymous vertex slots with deduplicated,
// insertion-ordered adjacency lists. A DAG knows nothing about
// addresses or hops — callers attach their own keying (Graph keys
// vertices by (address, hop)).
type DAG struct {
	succ  [][]VertexID
	indeg []int
}

// AddVertex appends one vertex slot and returns its ID.
func (d *DAG) AddVertex() VertexID {
	d.succ = append(d.succ, nil)
	d.indeg = append(d.indeg, 0)
	return VertexID(len(d.succ) - 1)
}

// NumVertices returns the number of vertex slots.
func (d *DAG) NumVertices() int { return len(d.succ) }

// AddEdge records the edge u→w unless it is already present, reporting
// whether it was added. Successor lists keep the order edges were first
// recorded in, which is what keeps graph construction deterministic for
// a deterministic caller.
func (d *DAG) AddEdge(u, w VertexID) bool {
	for _, s := range d.succ[u] {
		if s == w {
			return false
		}
	}
	d.succ[u] = append(d.succ[u], w)
	d.indeg[w]++
	return true
}

// HasEdge reports whether u→w is present.
func (d *DAG) HasEdge(u, w VertexID) bool {
	for _, s := range d.succ[u] {
		if s == w {
			return true
		}
	}
	return false
}

// Succ returns the successor vertex IDs of v. The slice is owned by the
// DAG; callers must not modify it.
func (d *DAG) Succ(v VertexID) []VertexID { return d.succ[v] }

// OutDegree returns the number of successors of v.
func (d *DAG) OutDegree(v VertexID) int { return len(d.succ[v]) }

// InDegree returns the number of predecessors of v.
func (d *DAG) InDegree(v VertexID) int { return d.indeg[v] }

// NumEdges returns the total number of edges.
func (d *DAG) NumEdges() int {
	n := 0
	for _, s := range d.succ {
		n += len(s)
	}
	return n
}
