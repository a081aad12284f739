package mine

import (
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// releaseWalk mines the subtree under n with pool discipline, as the PE
// models' pseudo-DFS does: children are released before their parents,
// and tasks at the last extending level go through ExtendLeaf, building
// no node. It is a top-level function (not a closure) so AllocsPerRun
// sees only the engine's own allocations.
func releaseWalk(e *Engine, n *Node) uint64 {
	var total uint64
	leaf := n.Level+1 == e.Plan.K()-2
	for _, c := range e.Candidates(n) {
		if leaf {
			cnt, _ := e.ExtendLeaf(n, c)
			total += cnt
			continue
		}
		child, _ := e.Extend(n, c)
		total += releaseWalk(e, child)
		e.Release(child)
	}
	return total
}

func mineRootPooled(e *Engine, v uint32) uint64 {
	root, _ := e.Start(v)
	total := releaseWalk(e, root)
	e.Release(root)
	return total
}

// TestEngineSteadyStateAllocs asserts the pooled Extend/ExtendLeaf walk
// allocates nothing once node and scratch capacities have warmed up, for
// leaf tasks at the root's children (tc) and deeper (4cl, 5cl). Clique
// plans keep chosen vertices out of every candidate window, so
// Candidates never takes its copying path.
func TestEngineSteadyStateAllocs(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"K12", gen.Complete(12)},
		{"plc300", gen.PowerLawCluster(300, 6, 0.6, 5)},
	}
	for _, gc := range graphs {
		for _, k := range []int{3, 4, 5} {
			pl := plan.MustCompile(pattern.Clique(k), plan.Options{})
			e := NewEngine(gc.g, pl)
			var warm uint64
			for v := 0; v < gc.g.NumVertices(); v++ {
				warm += mineRootPooled(e, uint32(v))
			}
			if want := CountOracle(gc.g, pl); warm != want {
				t.Fatalf("%s/%d-clique: pooled walk count = %d, oracle %d", gc.name, k, warm, want)
			}
			// The highest-degree vertex roots the busiest tree; its
			// embeddings prove the measured walk reaches ExtendLeaf.
			root := gc.g.DegreeOrder()[0]
			if mineRootPooled(e, root) == 0 {
				t.Fatalf("%s/%d-clique: root %d mines no embeddings", gc.name, k, root)
			}
			allocs := testing.AllocsPerRun(10, func() {
				mineRootPooled(e, root)
			})
			if allocs != 0 {
				t.Errorf("%s/%d-clique: steady-state walk allocates %.1f objects per root, want 0",
					gc.name, k, allocs)
			}
		}
	}
}
