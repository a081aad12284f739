package graph

import (
	"math/rand"
	"testing"
)

func randomGraph(seed int64, n uint32, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Uint32()%n, rng.Uint32()%n)
	}
	return b.Build()
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := randomGraph(9, 30, 80)
	order := g.DegreeOrder()
	r := g.Relabel(order)
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatal("relabel changed size")
	}
	// Every edge survives under the new names.
	newID := make([]uint32, len(order))
	for i, old := range order {
		newID[old] = uint32(i)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if !r.HasEdge(newID[v], newID[w]) {
				t.Fatalf("edge %d-%d lost by relabel", v, w)
			}
		}
	}
	// New vertex 0 is the old highest-degree vertex.
	if r.Degree(0) != g.Degree(order[0]) {
		t.Error("relabel order not honored")
	}
}

func TestRelabelRejectsBadOrders(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	for _, order := range [][]uint32{{0, 1}, {0, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v accepted", order)
				}
			}()
			g.Relabel(order)
		}()
	}
}

func TestRelabelErr(t *testing.T) {
	g := randomGraph(7, 10, 30)
	if _, err := g.RelabelErr([]uint32{0, 1}); err == nil {
		t.Error("short order: expected an error")
	}
	bad := make([]uint32, g.NumVertices())
	for i := range bad {
		bad[i] = uint32(i)
	}
	bad[3] = uint32(g.NumVertices()) // out of range
	if _, err := g.RelabelErr(bad); err == nil {
		t.Error("out-of-range vertex: expected an error")
	}
	bad[3] = bad[4] // repeated vertex
	if _, err := g.RelabelErr(bad); err == nil {
		t.Error("repeated vertex: expected an error")
	}
	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(g.NumVertices() - 1 - i)
	}
	got, err := g.RelabelErr(order)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Relabel(order)
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Error("RelabelErr diverges from Relabel")
	}
}
