// Package graph provides the input-graph substrate for the miner and the
// accelerator models: an immutable CSR (compressed sparse row) graph with
// sorted neighbor lists, builders with the preprocessing the paper assumes
// (undirected, no self-loops, no duplicate edges, sorted adjacency), text
// and binary serialization, and degree statistics.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Graph is an undirected graph in CSR form. Neighbor lists are sorted
// ascending, contain no self-loops and no duplicates — the representation
// pattern-aware mining requires so all set operations are one-pass merges
// (paper §2.1). A Graph is immutable after construction and safe for
// concurrent readers.
type Graph struct {
	offsets []int64  // len = NumVertices()+1
	neigh   []uint32 // len = 2 × undirected edge count

	hybridOnce sync.Once
	hybridAdj  *HybridAdj // lazily built by Hybrid
}

// Edge is one undirected edge between two vertex IDs.
type Edge struct {
	U, V uint32
}

// Builder accumulates edges and produces a normalized Graph.
type Builder struct {
	numVertices uint32
	edges       []Edge
}

// NewBuilder returns a builder for a graph with at least n vertices.
// Vertices are dense IDs in [0, n); adding an edge with a larger endpoint
// grows the vertex count automatically.
func NewBuilder(n uint32) *Builder {
	return &Builder{numVertices: n}
}

// AddEdge records an undirected edge. Self-loops are dropped silently,
// matching the paper's input preprocessing. Duplicates are removed at
// Build time.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v >= b.numVertices {
		b.numVertices = v + 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// NumEdgesAdded returns the number of (possibly duplicate) edges recorded.
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

// Build normalizes the accumulated edges into a CSR graph: duplicates
// removed, both directions materialized, neighbor lists sorted.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	uniq := b.edges[:0]
	var last Edge
	for i, e := range b.edges {
		if i > 0 && e == last {
			continue
		}
		uniq = append(uniq, e)
		last = e
	}
	b.edges = uniq

	n := int(b.numVertices)
	deg := make([]int64, n+1)
	for _, e := range uniq {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	neigh := make([]uint32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range uniq {
		neigh[cursor[e.U]] = e.V
		cursor[e.U]++
		neigh[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &Graph{offsets: offsets, neigh: neigh}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(uint32(v))
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	return g
}

// FromEdges builds a graph directly from an edge list.
func FromEdges(n uint32, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int64 { return g.offsets[len(g.offsets)-1] / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v uint32) bool {
	ns := g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean vertex degree (2E/V).
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(len(g.neigh)) / float64(g.NumVertices())
}

// NeighborBytes returns the size in bytes of v's neighbor list as stored
// in memory (4 bytes per vertex ID), used by the memory timing model.
func (g *Graph) NeighborBytes(v uint32) int64 {
	return 4 * (g.offsets[v+1] - g.offsets[v])
}

// NeighborAddr returns the byte address of v's neighbor list within the
// graph's flat adjacency array, used as the cache/DRAM address.
func (g *Graph) NeighborAddr(v uint32) int64 {
	return 4 * g.offsets[v]
}

// TotalAdjacencyBytes returns the byte size of the whole adjacency array.
func (g *Graph) TotalAdjacencyBytes() int64 { return 4 * int64(len(g.neigh)) }

// Validate checks the CSR invariants: monotone offsets, sorted duplicate-
// free neighbor lists, no self-loops, and symmetric adjacency.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		ns := g.Neighbors(uint32(v))
		for i, w := range ns {
			if int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == uint32(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: neighbor list of %d not strictly sorted", v)
			}
			if !g.HasEdge(w, uint32(v)) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// Edges returns all undirected edges with U < V, in sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				out = append(out, Edge{U: uint32(v), V: w})
			}
		}
	}
	return out
}

// Stats summarizes a graph in the format of the paper's Table 1.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// ComputeStats returns the Table-1 statistics of g.
func ComputeStats(g *Graph) Stats {
	return Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		AvgDegree: g.AvgDegree(),
		MaxDegree: g.MaxDegree(),
	}
}

// DegreeOrder returns a permutation of vertices sorted by descending
// degree, used by root-vertex scheduling studies.
func (g *Graph) DegreeOrder() []uint32 {
	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}
