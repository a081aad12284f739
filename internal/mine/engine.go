// Package mine executes compiled plans on input graphs. It provides the
// software reference miner (the correctness oracle and CPU baseline), a
// brute-force enumerator for validation, and — via Engine — the
// task-granular tree walk that both accelerator timing models drive:
// each Extend call is exactly one "task" in the paper's sense (§4, "the
// work to extend a new vertex to the current partial embedding"),
// reporting the distinct set operations and neighbor-list fetches the
// hardware would perform. ExtendLeaf is the same task at the last
// extending level, counting the final candidate set instead of building
// it.
package mine

import (
	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// SetOpExec describes one distinct set operation within a task, after
// common-subexpression sharing (identical updates are computed once,
// paper §3.3).
type SetOpExec struct {
	// Kind is the set operation executed by the compute units.
	Kind setops.Op
	// Short is the partial candidate set input (the short set, §3.4).
	Short []uint32
	// Long is the neighbor-list input (the long set).
	Long []uint32
	// LongVertex is the graph vertex whose neighbor list is Long, for
	// memory-traffic accounting.
	LongVertex uint32
	// Targets lists the plan levels whose candidate sets this operation
	// materializes (several when updates are shared).
	Targets []int
	// Result is the operation's output; nil for the counted final
	// operation of an ExtendLeaf task.
	Result []uint32
}

// TaskInfo reports what one task did, for the timing models. Its slices
// are views into engine-owned scratch that the next Start/Extend call on
// the same engine reuses: consume (or copy) a TaskInfo before issuing the
// engine's next task.
type TaskInfo struct {
	// Level is the tree level the new vertex was added at.
	Level int
	// NewVertex is the vertex extending the embedding.
	NewVertex uint32
	// Ops are the distinct set operations, in dependency order.
	Ops []SetOpExec
	// FetchVertices are the distinct vertices whose neighbor lists the
	// task reads: the new vertex first, then any postponed ancestors.
	FetchVertices []uint32
}

// Node is a search-tree node: a partial embedding with the candidate sets
// materialized so far. Set slices are shared structurally downward — a
// child's sets alias its ancestors' result buffers — so a Node may be
// kept on a stack while siblings are explored (the accelerators'
// pseudo-DFS needs this). Nodes come from a per-engine pool: callers that
// hold many nodes (the PE models) hand exhausted ones back with Release,
// strictly children before parents; callers that never Release (the
// oracle walks) simply allocate fresh nodes, as before.
type Node struct {
	// Level is the index of the deepest chosen vertex (len(Verts)-1).
	Level int
	// Verts holds the chosen vertices for levels 0..Level.
	Verts []uint32
	// sets[j] is the materialized partial candidate set S_j(Level) for
	// j > Level; nil when not yet started.
	sets [][]uint32
	// bufs are the result arenas of the extend that produced this node
	// (one per set operation); capacity survives pooling.
	bufs [][]uint32
	nbuf int
}

// claimBuf hands out the node's next result arena, empty.
func (n *Node) claimBuf() []uint32 {
	if n.nbuf == len(n.bufs) {
		n.bufs = append(n.bufs, nil)
	}
	return n.bufs[n.nbuf][:0]
}

// storeBuf records the claimed arena's grown backing for reuse.
func (n *Node) storeBuf(b []uint32) {
	n.bufs[n.nbuf] = b
	n.nbuf++
}

// Engine walks one plan's search tree on one graph. An Engine is not safe
// for concurrent use; create one per worker goroutine.
//
// Each task runs its level's static schedule (buildSchedule), so shared
// updates compute once, and dispatches each set operation through the
// graph's hybrid storage view like the software miner does. The kernels
// differ per call but the set algebra does not, so results, TaskInfo
// geometry, and therefore modeled timing are bit-identical to the plain
// merge walk.
type Engine struct {
	G    *graph.Graph
	Plan *plan.Plan

	kernels
	sched [][]step
	root  *Node // persistent level -1 parent for Start
	leaf  *Node // ExtendLeaf's scratch child; never pooled or returned

	// Node pool.
	free []*Node

	// Per-task scratch backing TaskInfo; valid until the next task.
	ops   []SetOpExec
	fetch []uint32
}

// NewEngine returns an engine for the plan on g.
func NewEngine(g *graph.Graph, pl *plan.Plan) *Engine {
	e := &Engine{G: g, Plan: pl, kernels: kernels{adj: g.Hybrid()}, sched: buildSchedule(pl)}
	e.root = e.newNode()
	e.root.Level = -1
	e.leaf = e.newNode()
	return e
}

// newNode takes a node from the pool, or allocates one.
func (e *Engine) newNode() *Node {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free = e.free[:n-1]
		return nd
	}
	k := e.Plan.K()
	return &Node{
		Verts: make([]uint32, 0, k),
		sets:  make([][]uint32, k),
	}
}

// Release returns n's storage to the engine's pool. The caller must hold
// no live references: in particular every child of n (whose sets alias
// n's buffers) must have been released first — pseudo-DFS pop order
// satisfies this naturally. Releasing nil is a no-op.
func (e *Engine) Release(n *Node) {
	if n == nil || n == e.root {
		return
	}
	e.free = append(e.free, n)
}

// Start creates the root node for u_0 = v0 and performs the level-0 task.
func (e *Engine) Start(v0 uint32) (*Node, TaskInfo) {
	child := e.newNode()
	_, info := e.extend(e.root, v0, child, false)
	return child, info
}

// Extend performs the task of adding v at level n.Level+1: it applies that
// level's scheduled actions and returns the child node plus the task's
// operations. v must come from Candidates(n).
func (e *Engine) Extend(n *Node, v uint32) (*Node, TaskInfo) {
	if n.Level+1 >= e.Plan.K()-1 {
		panic("mine: Extend beyond the last extending level; use LeafCount")
	}
	child := e.newNode()
	_, info := e.extend(n, v, child, false)
	return child, info
}

// ExtendLeaf performs the task of adding v at the last extending level
// (n.Level+1 == K-2) and returns the number of embeddings it completes,
// the value LeafCount would report on Extend's child, without building
// that child. The TaskInfo matches Extend's field for field except that
// the final operation's Result is nil: that operation is counted over
// the symmetry-breaking window instead of materialized. Earlier
// operations of the task (postponed anti-subtractions) still materialize
// into engine scratch, valid until the next task.
func (e *Engine) ExtendLeaf(n *Node, v uint32) (uint64, TaskInfo) {
	if n.Level+1 != e.Plan.K()-2 {
		panic("mine: ExtendLeaf below or above the last extending level")
	}
	return e.extend(n, v, e.leaf, true)
}

// extend runs level n.Level+1's schedule for vertex v into child. With
// leaf set, the task's final operation is counted over the leaf window
// instead of materialized and the count is returned; otherwise the count
// is 0 and child holds the new node.
func (e *Engine) extend(n *Node, v uint32, child *Node, leaf bool) (uint64, TaskInfo) {
	level := n.Level + 1
	child.Level = level
	child.Verts = append(child.Verts[:0], n.Verts...)
	child.Verts = append(child.Verts, v)
	copy(child.sets, n.sets)
	child.nbuf = 0

	e.ops = e.ops[:0]
	e.fetch = e.fetch[:0]

	nv := e.G.Neighbors(v)
	e.fetch = append(e.fetch, v)

	// At the last extending level every step targets the final slot, so
	// the last operation emitted produces the set LeafCount would scan;
	// a leaf task counts it in place of materializing it.
	var count uint64
	counted := false
	var w window
	if leaf {
		w = levelWindow(e.Plan, child.Verts, level+1)
	}
	steps := e.sched[level]
	for si := range steps {
		st := &steps[si]
		last := leaf && si == len(steps)-1
		var result []uint32
		switch st.op {
		case plan.OpInit:
			result = nv
			// Postponed anti-subtractions: peel each pending ancestor's
			// neighbor list off N(v) (paper §2.1). The IU executes each as
			// a subtraction with the accumulating candidate as the short
			// input and the ancestor's neighbor list as the long.
			for pi, m := range st.pending {
				anc := child.Verts[m]
				ancN := e.G.Neighbors(anc)
				e.fetch = append(e.fetch, anc)
				var out []uint32
				if last && pi == len(st.pending)-1 {
					count, counted = e.leafCount(plan.OpSubtract, result, ancN, anc, child.Verts, w), true
				} else {
					out = e.subtractInto(child.claimBuf(), result, ancN, anc)
					child.storeBuf(out)
				}
				e.ops = append(e.ops, SetOpExec{
					Kind:       setops.OpSubtract,
					Short:      result,
					Long:       ancN,
					LongVertex: anc,
					Targets:    st.targets,
					Result:     out,
				})
				result = out
			}
		case plan.OpIntersect, plan.OpSubtract:
			src := n.sets[st.src]
			kind := setops.OpIntersect
			if st.op == plan.OpSubtract {
				kind = setops.OpSubtract
			}
			if last {
				count, counted = e.leafCount(st.op, src, nv, v, child.Verts, w), true
			} else {
				result = e.updateInto(st.op, child.claimBuf(), src, nv, v)
				child.storeBuf(result)
			}
			e.ops = append(e.ops, SetOpExec{
				Kind:       kind,
				Short:      src,
				Long:       nv,
				LongVertex: v,
				Targets:    st.targets,
				Result:     result,
			})
		}
		for _, t := range st.targets {
			child.sets[t] = result
		}
	}
	if leaf && !counted {
		// No operation produced the final set (an inherited set, or a
		// plain N(v) initialization): scan it as LeafCount does.
		count = countWindow(child.sets[level+1], child.Verts, w)
	}
	return count, TaskInfo{Level: level, NewVertex: v, Ops: e.ops, FetchVertices: e.fetch}
}

// Candidates returns the valid vertices for extending n at the next
// level, with symmetry-breaking restrictions and already-used vertices
// filtered out. The returned slice must not be modified; it stays valid
// while n is live (it aliases n's candidate storage, or is freshly
// allocated on the rare path where chosen vertices intrude).
func (e *Engine) Candidates(n *Node) []uint32 {
	set := n.sets[n.Level+1]
	a, b := levelWindow(e.Plan, n.Verts, n.Level+1).span(set)
	window := set[a:b]
	// Chosen vertices rarely appear in the window; copy only if needed.
	clean := true
	for _, u := range n.Verts {
		if setops.Contains(window, u) {
			clean = false
			break
		}
	}
	if clean {
		return window
	}
	out := make([]uint32, 0, len(window))
	for _, v := range window {
		if !containsVert(n.Verts, v) {
			out = append(out, v)
		}
	}
	return out
}

// LeafCount counts the valid vertices at the final level below n, i.e.
// the embeddings completed through n. n.Level must be K-2.
func (e *Engine) LeafCount(n *Node) uint64 {
	if n.Level != e.Plan.K()-2 {
		panic("mine: LeafCount on non-penultimate node")
	}
	return countWindow(n.sets[n.Level+1], n.Verts, levelWindow(e.Plan, n.Verts, n.Level+1))
}

// LeafSet returns the final-level candidate set below n with restrictions
// and used vertices applied, for listing embeddings.
func (e *Engine) LeafSet(n *Node) []uint32 {
	return e.Candidates(n)
}
