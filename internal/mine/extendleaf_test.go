package mine

import (
	"math"
	"slices"
	"testing"

	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// cloneTaskInfo deep-copies a TaskInfo out of the engine's scratch.
func cloneTaskInfo(info TaskInfo) TaskInfo {
	out := info
	out.FetchVertices = slices.Clone(info.FetchVertices)
	out.Ops = make([]SetOpExec, len(info.Ops))
	for i, op := range info.Ops {
		op.Short = slices.Clone(op.Short)
		op.Long = slices.Clone(op.Long)
		op.Targets = slices.Clone(op.Targets)
		op.Result = slices.Clone(op.Result)
		out.Ops[i] = op
	}
	return out
}

// diffLeafTask reports how ExtendLeaf's TaskInfo departs from Extend's:
// every field must match except the final operation's Result, which
// ExtendLeaf leaves nil because it counts that set instead.
func diffLeafTask(want, got TaskInfo) string {
	switch {
	case got.Level != want.Level:
		return "level"
	case got.NewVertex != want.NewVertex:
		return "new vertex"
	case !slices.Equal(got.FetchVertices, want.FetchVertices):
		return "fetch vertices"
	case len(got.Ops) != len(want.Ops):
		return "op count"
	}
	for i, w := range want.Ops {
		g := got.Ops[i]
		switch {
		case g.Kind != w.Kind:
			return "op kind"
		case !slices.Equal(g.Short, w.Short):
			return "op short input"
		case !slices.Equal(g.Long, w.Long):
			return "op long input"
		case g.LongVertex != w.LongVertex:
			return "op long vertex"
		case !slices.Equal(g.Targets, w.Targets):
			return "op targets"
		case i == len(want.Ops)-1 && g.Result != nil:
			return "final op result not nil"
		case i < len(want.Ops)-1 && !slices.Equal(g.Result, w.Result):
			return "op result"
		}
	}
	return ""
}

// checkLeafTasks walks the subtree under n and, at the last extending
// level, runs every task both ways: Extend+LeafCount as the reference
// and ExtendLeaf. It returns ExtendLeaf's embedding count. The walk
// stops once *budget leaf tasks have been checked.
func checkLeafTasks(t *testing.T, e *Engine, n *Node, what string, budget *int) uint64 {
	var total uint64
	leaf := n.Level+1 == e.Plan.K()-2
	for _, v := range e.Candidates(n) {
		if *budget <= 0 {
			break
		}
		if !leaf {
			child, _ := e.Extend(n, v)
			total += checkLeafTasks(t, e, child, what, budget)
			e.Release(child)
			continue
		}
		*budget--
		child, info := e.Extend(n, v)
		want := e.LeafCount(child)
		ref := cloneTaskInfo(info)
		e.Release(child)
		got, gotInfo := e.ExtendLeaf(n, v)
		if got != want {
			t.Fatalf("%s: verts %v + %d: ExtendLeaf count %d, LeafCount(Extend) %d", what, n.Verts, v, got, want)
		}
		if d := diffLeafTask(ref, gotInfo); d != "" {
			t.Fatalf("%s: verts %v + %d: TaskInfo differs in %s", what, n.Verts, v, d)
		}
		total += got
	}
	return total
}

// TestExtendLeafMatchesExtend pins ExtendLeaf to the materializing
// reference, task by task: on every named pattern, vertex- and
// edge-induced, on small generated graphs (every leaf task of every
// root, whole counts checked against CountOracle) and the As/Mi
// analogues (the first rootBudget leaf tasks of each sampled root), under
// every storage view the engine can dispatch through — adaptive, forced
// array, forced bitmap, and a dense row for every vertex.
func TestExtendLeafMatchesExtend(t *testing.T) {
	type graphCase struct {
		name  string
		g     *graph.Graph
		roots []uint32 // nil: every vertex, unbudgeted, and compare the total
	}
	const rootBudget = 2500
	cases := []graphCase{
		{"plc80", gen.PowerLawCluster(80, 5, 0.6, 7), nil},
		{"er60", gen.ErdosRenyi(60, 400, 3), nil},
		{"star+cliques", gen.WithPlantedCliques(gen.Star(40), 4, 5, 9), nil},
	}
	for _, d := range datasets.Small() {
		g := d.Graph()
		cases = append(cases, graphCase{d.Name, g, sampleRoots(g, 6, 2)})
	}
	for _, gc := range cases {
		views := []struct {
			name string
			adj  *graph.HybridAdj
		}{
			{"adaptive", gc.g.Hybrid()},
			{"array", graph.NewHybridAdj(gc.g, graph.StorageArray, 0)},
			{"bitmap", graph.NewHybridAdj(gc.g, graph.StorageBitmap, 0)},
			{"dense", graph.NewHybridAdj(gc.g, graph.StorageAdaptive, 1)},
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
				if pl.K() < 3 {
					continue // the root task is the leaf task: no ExtendLeaf
				}
				var oracle uint64
				if gc.roots == nil {
					oracle = CountOracle(gc.g, pl)
				}
				for _, view := range views {
					e := NewEngine(gc.g, pl)
					e.adj = view.adj
					what := gc.name + "/" + name + "/" + view.name
					if edgeInduced {
						what += "/edge"
					}
					roots := gc.roots
					if roots == nil {
						for v := 0; v < gc.g.NumVertices(); v++ {
							roots = append(roots, uint32(v))
						}
					}
					var total uint64
					for _, v := range roots {
						budget := rootBudget
						if gc.roots == nil {
							budget = math.MaxInt
						}
						root, _ := e.Start(v)
						total += checkLeafTasks(t, e, root, what, &budget)
						e.Release(root)
					}
					if gc.roots == nil && total != oracle {
						t.Fatalf("%s: ExtendLeaf walk counts %d, CountOracle %d", what, total, oracle)
					}
				}
			}
		}
	}
}
