package mine

import (
	"math/rand"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// noisyCopy rebuilds g from its edge list with every edge added twice
// (once reversed) and self-loops on a random third of the vertices: the
// builder's normalization must erase all of it.
func noisyCopy(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(uint32(g.NumVertices()))
	for v := 0; v < g.NumVertices(); v++ {
		if rng.Intn(3) == 0 {
			b.AddEdge(uint32(v), uint32(v))
		}
		for _, w := range g.Neighbors(uint32(v)) {
			b.AddEdge(uint32(v), w)
			b.AddEdge(w, uint32(v))
		}
	}
	return b.Build()
}

// randomRelabel renames g's vertices by a random permutation.
func randomRelabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	order := make([]uint32, g.NumVertices())
	for i, p := range rng.Perm(g.NumVertices()) {
		order[i] = uint32(p)
	}
	return g.Relabel(order)
}

// TestCountsInvariantUnderRelabelAndNoise checks two metamorphic
// relations: embedding counts depend on neither the vertex names nor
// duplicate-edge and self-loop noise in the input edge list. Both the
// adaptive Counter and the reference Engine must hold them, for every
// named pattern, vertex- and edge-induced.
func TestCountsInvariantUnderRelabelAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"plc80", gen.PowerLawCluster(80, 5, 0.6, 3)},
		{"er60", gen.ErdosRenyi(60, 400, 8)},
	}
	for _, gc := range graphs {
		variants := []struct {
			name string
			g    *graph.Graph
		}{
			{"relabel", randomRelabel(gc.g, rng)},
			{"noise", noisyCopy(gc.g, rng)},
		}
		for _, name := range pattern.Names() {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatal(err)
				}
				want := CountOracle(gc.g, pl)
				for _, v := range variants {
					if got := Count(v.g, pl); got != want {
						t.Errorf("%s/%s/%s edgeInduced=%v: Count %d, original %d", gc.name, v.name, name, edgeInduced, got, want)
					}
					if got := CountOracle(v.g, pl); got != want {
						t.Errorf("%s/%s/%s edgeInduced=%v: CountOracle %d, original %d", gc.name, v.name, name, edgeInduced, got, want)
					}
				}
			}
		}
	}
}
