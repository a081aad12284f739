package mine

import (
	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// Counter is the adaptive software miner: it runs the same per-level
// schedule and kernel dispatch as Engine but is built for CPU throughput
// rather than hardware-model fidelity, which is why Count/CountParallel
// route through it:
//
//   - zero steady-state allocation: candidate sets live in per-level
//     scratch frames that are reused across siblings and roots, so after
//     buffer capacities warm up, mining a root allocates nothing, and no
//     per-task report is built;
//   - leaf counting on stored rows: when the last extending level
//     performs a single update of a slot that still aliases N(u), and
//     both u and v keep dense or bitmap rows, the embedding count is a
//     word-parallel popcount over the symmetry-breaking window.
//
// A Counter is not safe for concurrent use; create one per worker (it is
// the "per-worker scratch arena" of the work-stealing scheduler).
// Counts are bit-identical to Engine's: the kernels differ, the set
// algebra does not.
type Counter struct {
	g     *graph.Graph
	pl    *plan.Plan
	sched [][]step
	k     int
	kernels

	verts  []uint32
	frames []frame
}

// frame is one level's scratch arena.
type frame struct {
	// sets[j] is the candidate set for slot j after this level's steps,
	// pointing into a buf below, a shallower frame's buf, or graph
	// storage. Reading sets[st.src] before the step writes its targets
	// yields the parent's value (each slot is written once per level).
	sets [][]uint32
	// alias[j] is the vertex whose raw neighbor list sets[j] aliases
	// (an OpInit step with no postponed ancestors), or -1 once any
	// kernel has rewritten the slot. It lets the leaf fast path
	// recognize N(u) op N(v) shapes and count them entirely on stored
	// rows — the pure-popcount path of the hybrid storage tentpole.
	alias []int64
	// bufs[i] is step i's reusable result buffer; capacity only grows.
	bufs [][]uint32
}

// NewCounter returns a reusable adaptive miner for the plan on g, using
// the graph's cached adaptive hybrid view: dense rows for hubs,
// compressed bitmaps where the density heuristic approves, CSR arrays
// otherwise.
func NewCounter(g *graph.Graph, pl *plan.Plan) *Counter {
	return NewCounterPolicy(g, pl, graph.StorageAdaptive)
}

// NewCounterPolicy returns a Counter under an explicit storage policy.
// StorageAdaptive shares the graph's cached hybrid view (so parallel
// workers never duplicate rows); the forced policies build a private
// view and exist for differential tests and ablations.
func NewCounterPolicy(g *graph.Graph, pl *plan.Plan, policy graph.StoragePolicy) *Counter {
	c := &Counter{
		g:     g,
		pl:    pl,
		sched: buildSchedule(pl),
		k:     pl.K(),
	}
	switch policy {
	case graph.StorageArray:
		// Pure merge/gallop: no dense rows, no bitmaps.
	case graph.StorageAdaptive:
		c.adj = g.Hybrid()
	default:
		c.adj = graph.NewHybridAdj(g, policy, 0)
	}
	c.verts = make([]uint32, c.k)
	c.frames = make([]frame, c.k-1)
	for level := range c.frames {
		c.frames[level].sets = make([][]uint32, c.k)
		c.frames[level].alias = make([]int64, c.k)
		c.frames[level].bufs = make([][]uint32, len(c.sched[level]))
	}
	return c
}

// SetHybrid overrides the storage view, letting tests and ablations
// share one forced-policy view across counters (or force the dense tier
// with a low hub threshold); nil detaches every stored row.
func (c *Counter) SetHybrid(adj *graph.HybridAdj) {
	c.adj = adj
}

// Stats returns the kernel-dispatch counters accumulated so far.
func (c *Counter) Stats() KernelStats { return c.stats }

// Root mines the search tree rooted at v0 and returns its embedding
// count. After buffer warm-up it performs no heap allocation.
func (c *Counter) Root(v0 uint32) uint64 {
	return c.descend(0, v0)
}

func (c *Counter) descend(level int, v uint32) uint64 {
	c.verts[level] = v
	f := &c.frames[level]
	if level == 0 {
		for i := range f.sets {
			f.sets[i] = nil
			f.alias[i] = -1
		}
	} else {
		copy(f.sets, c.frames[level-1].sets)
		copy(f.alias, c.frames[level-1].alias)
	}
	nv := c.g.Neighbors(v)
	steps := c.sched[level]

	if level == c.k-2 {
		// Leaf fast path: a lone update step materializing only the final
		// slot can be counted without writing the result.
		if len(steps) == 1 && steps[0].op != plan.OpInit {
			return c.leafCountUpdate(&steps[0], f, nv, v)
		}
		c.applySteps(f, steps, nv, v)
		return countWindow(f.sets[c.k-1], c.verts[:c.k-1], levelWindow(c.pl, c.verts, c.k-1))
	}

	c.applySteps(f, steps, nv, v)
	set := f.sets[level+1]
	a, b := levelWindow(c.pl, c.verts, level+1).span(set)
	used := c.verts[:level+1]
	var total uint64
	for _, w := range set[a:b] {
		if containsVert(used, w) {
			continue
		}
		total += c.descend(level+1, w)
	}
	return total
}

// applySteps executes one level's schedule into the frame's arenas.
func (c *Counter) applySteps(f *frame, steps []step, nv []uint32, v uint32) {
	for si := range steps {
		st := &steps[si]
		var result []uint32
		aliasVert := int64(-1)
		if st.op == plan.OpInit {
			if len(st.pending) == 0 {
				// No postponed ancestors: the slot aliases the (read-only)
				// neighbor list, costing nothing.
				result = nv
				aliasVert = int64(v)
			} else {
				anc := c.verts[st.pending[0]]
				buf := c.subtractInto(f.bufs[si][:0], nv, c.g.Neighbors(anc), anc)
				for _, m := range st.pending[1:] {
					anc = c.verts[m]
					buf = c.subtractInPlace(buf, c.g.Neighbors(anc), anc)
				}
				f.bufs[si] = buf
				result = buf
			}
		} else {
			src := f.sets[st.src] // parent's value: targets not yet written
			buf := c.updateInto(st.op, f.bufs[si][:0], src, nv, v)
			f.bufs[si] = buf
			result = buf
		}
		for _, t := range st.targets {
			f.sets[t] = result
			f.alias[t] = aliasVert
		}
	}
}

// leafCountUpdate counts op(src, N(v)) restricted to the final level's
// symmetry-breaking window, excluding already-used vertices, without
// materializing the result.
func (c *Counter) leafCountUpdate(st *step, f *frame, nv []uint32, v uint32) uint64 {
	w := levelWindow(c.pl, c.verts, c.k-1)
	// Pure-popcount path: when the source slot still aliases N(u) and
	// both u and v keep stored rows (dense or bitmap), the whole leaf
	// count happens on container words — no array is even read.
	if au := f.alias[st.src]; au >= 0 {
		if cnt, ok := c.leafCountRows(st.op, uint32(au), v, w); ok {
			return cnt
		}
	}
	return c.leafCount(st.op, f.sets[st.src], nv, v, c.verts[:c.k-1], w)
}

// leafCountRows counts op(N(u), N(v)) within the leaf window entirely
// on stored rows, returning ok=false when either vertex lacks one. The
// set algebra is identical to the array path: the bounded kernels count
// the same open interval window.span selects, and the
// used-vertex exclusion applies the same membership tests.
func (c *Counter) leafCountRows(op plan.OpKind, u, v uint32, w window) (uint64, bool) {
	uDense, uBm := c.adj.Rows(u)
	if uDense == nil && uBm == nil {
		return 0, false
	}
	vDense, vBm := c.adj.Rows(v)
	if vDense == nil && vBm == nil {
		return 0, false
	}
	lo, hi, hasLo, hasHi := w.lo, w.hi, w.hasLo, w.hasHi
	var inter int
	switch {
	case uBm != nil && vBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapsCountBounded(uBm, vBm, lo, hi, hasLo, hasHi)
	case uBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapBitsCountBounded(uBm, vDense, lo, hi, hasLo, hasHi)
	case vBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapBitsCountBounded(vBm, uDense, lo, hi, hasLo, hasHi)
	default:
		// Two dense rows: still the bitvector kernel family, word-parallel.
		c.stats.CountBits++
		inter = setops.IntersectBitsCountBounded(uDense, vDense, lo, hi, hasLo, hasHi)
	}
	cnt := inter
	if op != plan.OpIntersect {
		var total int
		if uBm != nil {
			total = uBm.CountBounded(lo, hi, hasLo, hasHi)
		} else {
			total = setops.CountBitsBounded(uDense, lo, hi, hasLo, hasHi)
		}
		cnt = total - inter
	}
	for _, x := range c.verts[:c.k-1] {
		if hasLo && x <= lo {
			continue
		}
		if hasHi && x >= hi {
			continue
		}
		if !uBm.Contains(x) && !setops.BitsContain(uDense, x) {
			continue
		}
		inV := vBm.Contains(x) || setops.BitsContain(vDense, x)
		if op == plan.OpIntersect {
			if inV {
				cnt--
			}
		} else if !inV {
			cnt--
		}
	}
	return uint64(cnt), true
}
