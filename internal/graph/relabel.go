package graph

import "fmt"

// Relabel returns the graph with vertices renamed so that newID[i] =
// position of oldID order[i]; i.e. order lists the old IDs in their new
// order. Relabeling by degree or degeneracy improves locality of the
// adjacency array for mining.
//
// Relabel panics on an order that is not a permutation of the vertex
// IDs; RelabelErr reports the same conditions as an error, for callers
// that ingest the order from outside the process.
func (g *Graph) Relabel(order []uint32) *Graph {
	r, err := g.RelabelErr(order)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// RelabelErr is Relabel with validation instead of panics: an order
// whose length differs from the vertex count, holds an out-of-range ID,
// or repeats an ID is reported as an error.
func (g *Graph) RelabelErr(order []uint32) (*Graph, error) {
	n := g.NumVertices()
	if len(order) != n {
		return nil, fmt.Errorf("graph: relabel order length mismatch: got %d, want %d", len(order), n)
	}
	newID := make([]uint32, n)
	seen := make([]bool, n)
	for i, old := range order {
		if int(old) >= n {
			return nil, fmt.Errorf("graph: relabel order holds out-of-range vertex %d", old)
		}
		if seen[old] {
			return nil, fmt.Errorf("graph: relabel order is not a permutation: vertex %d repeats", old)
		}
		seen[old] = true
		newID[old] = uint32(i)
	}
	b := NewBuilder(uint32(n))
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				b.AddEdge(newID[v], newID[w])
			}
		}
	}
	return b.Build(), nil
}
