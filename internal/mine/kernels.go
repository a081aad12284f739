package mine

import (
	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// kernels is the set-operation dispatch both tree walkers share: every
// operation against N(v) picks its kernel from v's storage tier in the
// hybrid view (dense row, then compressed bitmap) and, on the raw
// arrays, from the size skew (galloping, else merge). The kernels differ
// per call but the set algebra does not, so results never depend on the
// view. stats counts the decisions.
type kernels struct {
	adj   *graph.HybridAdj
	stats KernelStats
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

// intersectInto appends src ∩ N(v) to dst.
func (k *kernels) intersectInto(dst, src, nv []uint32, v uint32) []uint32 {
	row, bm := k.adj.Rows(v)
	switch {
	case row != nil:
		k.stats.Bits++
		return setops.IntersectBitsInto(dst, src, row)
	case bm != nil:
		k.stats.BmProbe++
		return setops.IntersectArrayBitmapInto(dst, src, bm)
	case skewed(src, nv):
		k.stats.Gallop++
		return setops.IntersectGallopingInto(dst, src, nv)
	default:
		k.stats.Merge++
		return setops.IntersectInto(dst, src, nv)
	}
}

// subtractInto appends src − N(v) to dst.
func (k *kernels) subtractInto(dst, src, nv []uint32, v uint32) []uint32 {
	row, bm := k.adj.Rows(v)
	switch {
	case row != nil:
		k.stats.Bits++
		return setops.SubtractBitsInto(dst, src, row)
	case bm != nil:
		k.stats.BmProbe++
		return setops.SubtractArrayBitmapInto(dst, src, bm)
	case len(nv) >= setops.GallopSkewThreshold*len(src):
		k.stats.Gallop++
		return setops.SubtractGallopingInto(dst, src, nv)
	default:
		k.stats.Merge++
		return setops.SubtractInto(dst, src, nv)
	}
}

// subtractInPlace compacts a to a − N(v) in place.
func (k *kernels) subtractInPlace(a, nv []uint32, v uint32) []uint32 {
	row, bm := k.adj.Rows(v)
	switch {
	case row != nil:
		k.stats.Bits++
		return setops.SubtractBitsInPlace(a, row)
	case bm != nil:
		k.stats.BmProbe++
		return setops.SubtractArrayBitmapInPlace(a, bm)
	case len(nv) >= setops.GallopSkewThreshold*len(a):
		k.stats.Gallop++
	default:
		k.stats.Merge++
	}
	return setops.SubtractInPlace(a, nv)
}

// updateInto appends op(src, N(v)) to dst for an intersect or subtract
// update.
func (k *kernels) updateInto(op plan.OpKind, dst, src, nv []uint32, v uint32) []uint32 {
	if op == plan.OpIntersect {
		return k.intersectInto(dst, src, nv, v)
	}
	return k.subtractInto(dst, src, nv, v)
}

// leafCount counts the final-level candidates op(src, N(v)) would hold
// without materializing them: only the part of src inside the window w
// is read, and the chosen vertices verts are excluded, so the result
// equals countWindow over the materialized set.
func (k *kernels) leafCount(op plan.OpKind, src, nv []uint32, v uint32, verts []uint32, w window) uint64 {
	a, b := w.span(src)
	win := src[a:b]
	if len(win) == 0 {
		return 0
	}
	first, last := win[0], win[len(win)-1]
	row, bm := k.adj.Rows(v)
	var inter int
	switch {
	case row != nil:
		k.stats.CountBits++
		inter = setops.IntersectCountBits(win, row)
	case bm != nil:
		k.stats.CountBmProbe++
		inter = setops.IntersectArrayBitmapCount(win, bm)
	default:
		// Neighbors below the window cannot match: skip them.
		long := nv[setops.LowerBound(nv, first):]
		if skewed(win, long) {
			k.stats.CountGallop++
			inter = setops.IntersectCountGalloping(win, long)
		} else {
			k.stats.CountMerge++
			inter = setops.IntersectCount(win, long)
		}
	}
	keep := op == plan.OpIntersect
	cnt := len(win) - inter
	if keep {
		cnt = inter
	}
	for _, u := range verts {
		if u >= first && u <= last && setops.Contains(win, u) && leafMember(nv, row, bm, u) == keep {
			cnt--
		}
	}
	return uint64(cnt)
}

// skewed reports whether either input dwarfs the other enough for the
// galloping kernels to engage.
func skewed(a, b []uint32) bool {
	return len(b) >= setops.GallopSkewThreshold*len(a) ||
		len(a) >= setops.GallopSkewThreshold*len(b)
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

// window is a level's symmetry-breaking interval: candidates must be
// strictly greater than lo when hasLo and strictly less than hi when
// hasHi.
type window struct {
	lo, hi       uint32
	hasLo, hasHi bool
}

// levelWindow resolves the restrictions of the given level against the
// vertices chosen at the earlier levels.
func levelWindow(pl *plan.Plan, verts []uint32, level int) window {
	var w window
	for _, r := range pl.Levels[level].Restrictions {
		bound := verts[r.Earlier]
		if r.Greater {
			if !w.hasLo || bound > w.lo {
				w.lo, w.hasLo = bound, true
			}
		} else {
			if !w.hasHi || bound < w.hi {
				w.hi, w.hasHi = bound, true
			}
		}
	}
	return w
}

// span returns the index range [a, b) of the sorted set inside w.
func (w window) span(set []uint32) (a, b int) {
	a, b = 0, len(set)
	if w.hasLo {
		a = setops.UpperBound(set, w.lo)
	}
	if w.hasHi {
		b = setops.LowerBound(set, w.hi)
	}
	if b < a {
		b = a
	}
	return a, b
}

// countWindow counts the members of a materialized final-level set
// inside w that are not among the chosen vertices verts.
func countWindow(set, verts []uint32, w window) uint64 {
	a, b := w.span(set)
	cnt := b - a
	for _, u := range verts {
		if setops.Contains(set[a:b], u) {
			cnt--
		}
	}
	return uint64(cnt)
}

func containsVert(vs []uint32, v uint32) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}
