package mine

import (
	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// Counter is the adaptive software miner: it walks the same search tree
// as Engine but is built for CPU throughput rather than hardware-model
// fidelity. Three things distinguish it (and are why Count/CountParallel
// route through it):
//
//   - adaptive kernel dispatch: every set operation picks merge,
//     galloping, dense-bitvector or compressed-bitmap probing per call,
//     from the input size ratio and the neighbor-list side's storage tier
//     in the graph's hybrid view (graph.HybridAdj);
//   - zero steady-state allocation: candidate sets live in per-level
//     scratch buffers that are reused across siblings and roots, so after
//     buffer capacities warm up, mining a root allocates nothing;
//   - leaf counting without materialization: when the last extending
//     level performs a single intersect/subtract, the embedding count is
//     computed directly from counting kernels over the symmetry-breaking
//     window.
//
// A Counter is not safe for concurrent use; create one per worker (it is
// the "per-worker scratch arena" of the work-stealing scheduler).
// Counts are bit-identical to Engine's: the kernels differ, the set
// algebra does not.
type Counter struct {
	g     *graph.Graph
	pl    *plan.Plan
	sched [][]step
	adj   *graph.HybridAdj
	k     int

	verts  []uint32
	frames []frame
	stats  KernelStats
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

// KernelStats counts kernel-dispatch decisions, split between
// materializing operations and leaf counting. BmProbe/CountBmProbe are
// array×bitmap container probes; CountBmWord is the word-parallel
// popcount leaf path over two stored rows.
type KernelStats struct {
	Merge, Gallop, Bits, BmProbe                     uint64
	CountMerge, CountGallop, CountBits, CountBmProbe uint64
	CountBmWord                                      uint64
}

// Total returns the number of dispatched operations.
func (s KernelStats) Total() uint64 {
	return s.Merge + s.Gallop + s.Bits + s.BmProbe +
		s.CountMerge + s.CountGallop + s.CountBits + s.CountBmProbe +
		s.CountBmWord
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
		return c.leafCountSet(f.sets[c.k-1])
	}

	c.applySteps(f, steps, nv, v)
	set := f.sets[level+1]
	a, b := c.window(level+1, set)
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
				buf := f.bufs[si][:0]
				anc := c.verts[st.pending[0]]
				buf = c.subtractNeighborsInto(buf, nv, anc)
				for _, m := range st.pending[1:] {
					buf = c.subtractNeighborsInPlace(buf, c.verts[m])
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

// updateInto computes op(src, N(v)) into dst with format-aware
// dispatch: dense row, then compressed bitmap row, then the size-skew
// choice between galloping and merge on the raw arrays.
func (c *Counter) updateInto(op plan.OpKind, dst, src, nv []uint32, v uint32) []uint32 {
	row, bm := c.adj.Rows(v)
	if op == plan.OpIntersect {
		switch {
		case row != nil:
			c.stats.Bits++
			return setops.IntersectBitsInto(dst, src, row)
		case bm != nil:
			c.stats.BmProbe++
			return setops.IntersectArrayBitmapInto(dst, src, bm)
		case skewed(src, nv):
			c.stats.Gallop++
			return setops.IntersectGallopingInto(dst, src, nv)
		default:
			c.stats.Merge++
			return setops.IntersectInto(dst, src, nv)
		}
	}
	switch {
	case row != nil:
		c.stats.Bits++
		return setops.SubtractBitsInto(dst, src, row)
	case bm != nil:
		c.stats.BmProbe++
		return setops.SubtractArrayBitmapInto(dst, src, bm)
	case len(nv) >= setops.GallopSkewThreshold*len(src):
		c.stats.Gallop++
		return setops.SubtractGallopingInto(dst, src, nv)
	default:
		c.stats.Merge++
		return setops.SubtractInto(dst, src, nv)
	}
}

// subtractNeighborsInto computes a − N(anc) into dst (the postponed
// anti-subtraction of §2.1, candidate side first).
func (c *Counter) subtractNeighborsInto(dst, a []uint32, anc uint32) []uint32 {
	row, bm := c.adj.Rows(anc)
	if row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInto(dst, a, row)
	}
	if bm != nil {
		c.stats.BmProbe++
		return setops.SubtractArrayBitmapInto(dst, a, bm)
	}
	ancN := c.g.Neighbors(anc)
	if len(ancN) >= setops.GallopSkewThreshold*len(a) {
		c.stats.Gallop++
	} else {
		c.stats.Merge++
	}
	return setops.SubtractGallopingInto(dst, a, ancN)
}

// subtractNeighborsInPlace compacts a to a − N(anc) in place.
func (c *Counter) subtractNeighborsInPlace(a []uint32, anc uint32) []uint32 {
	row, bm := c.adj.Rows(anc)
	if row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInPlace(a, row)
	}
	if bm != nil {
		c.stats.BmProbe++
		return setops.SubtractArrayBitmapInPlace(a, bm)
	}
	ancN := c.g.Neighbors(anc)
	if len(ancN) >= setops.GallopSkewThreshold*len(a) {
		c.stats.Gallop++
	} else {
		c.stats.Merge++
	}
	return setops.SubtractInPlace(a, ancN)
}

// skewed reports whether either input dwarfs the other enough for the
// galloping kernels to engage.
func skewed(a, b []uint32) bool {
	return len(b) >= setops.GallopSkewThreshold*len(a) ||
		len(a) >= setops.GallopSkewThreshold*len(b)
}

// leafCountUpdate counts op(src, N(v)) restricted to the final level's
// symmetry-breaking window, excluding already-used vertices, without
// materializing the result.
func (c *Counter) leafCountUpdate(st *step, f *frame, nv []uint32, v uint32) uint64 {
	src := f.sets[st.src]
	// Pure-popcount path: when the source slot still aliases N(u) and
	// both u and v keep stored rows (dense or bitmap), the whole leaf
	// count happens on container words — no array is even read.
	if au := f.alias[st.src]; au >= 0 {
		if cnt, ok := c.leafCountRows(st.op, uint32(au), v); ok {
			return cnt
		}
	}
	a, b := c.window(c.k-1, src)
	win := src[a:b]
	row, bm := c.adj.Rows(v)
	used := c.verts[:c.k-1]
	var cnt int
	if st.op == plan.OpIntersect {
		switch {
		case row != nil:
			c.stats.CountBits++
			cnt = setops.IntersectCountBits(win, row)
		case bm != nil:
			c.stats.CountBmProbe++
			cnt = setops.IntersectArrayBitmapCount(win, bm)
		case skewed(win, nv):
			c.stats.CountGallop++
			cnt = setops.IntersectCountGalloping(win, nv)
		default:
			c.stats.CountMerge++
			cnt = setops.IntersectCount(win, nv)
		}
		for _, u := range used {
			if setops.Contains(win, u) && leafMember(nv, row, bm, u) {
				cnt--
			}
		}
	} else {
		switch {
		case row != nil:
			c.stats.CountBits++
			cnt = len(win) - setops.IntersectCountBits(win, row)
		case bm != nil:
			c.stats.CountBmProbe++
			cnt = len(win) - setops.IntersectArrayBitmapCount(win, bm)
		case skewed(win, nv):
			c.stats.CountGallop++
			cnt = len(win) - setops.IntersectCountGalloping(win, nv)
		default:
			c.stats.CountMerge++
			cnt = len(win) - setops.IntersectCount(win, nv)
		}
		for _, u := range used {
			if setops.Contains(win, u) && !leafMember(nv, row, bm, u) {
				cnt--
			}
		}
	}
	return uint64(cnt)
}

// leafCountRows counts op(N(u), N(v)) within the leaf window entirely
// on stored rows, returning ok=false when either vertex lacks one. The
// set algebra is identical to the array path: the bounded kernels count
// the same open interval the window() slicing selects, and the
// used-vertex exclusion applies the same membership tests.
func (c *Counter) leafCountRows(op plan.OpKind, u, v uint32) (uint64, bool) {
	uDense, uBm := c.adj.Rows(u)
	if uDense == nil && uBm == nil {
		return 0, false
	}
	vDense, vBm := c.adj.Rows(v)
	if vDense == nil && vBm == nil {
		return 0, false
	}
	lo, hi, hasLo, hasHi := c.windowBounds(c.k - 1)
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
	for _, w := range c.verts[:c.k-1] {
		if hasLo && w <= lo {
			continue
		}
		if hasHi && w >= hi {
			continue
		}
		if !uBm.Contains(w) && !setops.BitsContain(uDense, w) {
			continue
		}
		inV := vBm.Contains(w) || setops.BitsContain(vDense, w)
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

// leafMember reports u ∈ N(v) through the stored row when available.
func leafMember(nv []uint32, row []uint64, bm *setops.Bitmap, u uint32) bool {
	if row != nil {
		return setops.BitsContain(row, u)
	}
	if bm != nil {
		return bm.Contains(u)
	}
	return setops.Contains(nv, u)
}

// leafCountSet counts a materialized final-level set within its window,
// excluding used vertices (the generic leaf path).
func (c *Counter) leafCountSet(set []uint32) uint64 {
	a, b := c.window(c.k-1, set)
	cnt := b - a
	for _, u := range c.verts[:c.k-1] {
		if setops.Contains(set[a:b], u) {
			cnt--
		}
	}
	return uint64(cnt)
}

// windowBounds resolves the symmetry-breaking restrictions of the given
// level to the open interval (lo, hi): candidates must be strictly
// greater than lo when hasLo and strictly less than hi when hasHi.
func (c *Counter) windowBounds(level int) (lo, hi uint32, hasLo, hasHi bool) {
	for _, r := range c.pl.Levels[level].Restrictions {
		bound := c.verts[r.Earlier]
		if r.Greater {
			if !hasLo || bound > lo {
				lo, hasLo = bound, true
			}
		} else {
			if !hasHi || bound < hi {
				hi, hasHi = bound, true
			}
		}
	}
	return lo, hi, hasLo, hasHi
}

// window returns the index range of set surviving the symmetry-breaking
// restrictions of the given level, mirroring Engine.window.
func (c *Counter) window(level int, set []uint32) (a, b int) {
	lo, hi, hasLo, hasHi := c.windowBounds(level)
	a, b = 0, len(set)
	if hasLo {
		a = setops.UpperBound(set, lo)
	}
	if hasHi {
		b = setops.LowerBound(set, hi)
	}
	if b < a {
		b = a
	}
	return a, b
}
