package graph

import (
	"sync/atomic"

	"fingers/internal/setops"
)

// HybridAdj is the graph's adaptive set-storage view (SISA-style): each
// neighbor list is classified at construction into one of three tiers,
// cheapest representation first —
//
//   - dense: hub vertices (degree ≥ the hub threshold) keep a
//     full-universe bitset row, one bit per vertex, so a set operation
//     against the hub's list costs one word probe per element of the
//     other input, independent of the hub's degree (SISA's bitvector
//     observation: on power-law graphs the few hubs absorb a
//     disproportionate share of set-operation work).
//   - bitmap: vertices whose list is dense over its own span
//     (setops.ChooseFormat) get a roaring-like compressed bitmap,
//     materialized lazily per vertex on first use and published with a
//     compare-and-swap so racing builders agree byte-for-byte.
//   - array: everything else stays on the CSR's sorted []uint32 —
//     zero added memory.
//
// Classification itself is O(1) per vertex (degree plus first/last
// neighbor give the span); only the per-vertex container counts need a
// scan, and only for bitmap-eligible rows. A HybridAdj is safe for
// concurrent readers, including concurrent lazy materialization.
type HybridAdj struct {
	g      *Graph
	policy StoragePolicy

	tiers []tier
	// slot[v] is v's container count in the bitmap tier, or its row
	// index into dense in the dense tier.
	slot []int32
	rows []atomic.Pointer[setops.Bitmap]
	// dense holds the dense tier's rows back to back, words each.
	dense []uint64
	words int

	eligibleRows  int
	eligibleBytes int64

	matRows  atomic.Int64
	matBytes atomic.Int64
}

// StoragePolicy selects how HybridAdj classifies neighbor lists. The
// forced policies exist for differential testing and ablations; serving
// paths use StorageAdaptive.
type StoragePolicy uint8

const (
	// StorageAdaptive picks dense rows for hubs, compressed bitmaps
	// where the density heuristic approves, arrays otherwise.
	StorageAdaptive StoragePolicy = iota
	// StorageArray forces every list to stay on the CSR arrays.
	StorageArray
	// StorageBitmap forces a compressed bitmap for every nonempty list
	// (no dense tier), however sparse.
	StorageBitmap
)

// String returns the policy's conventional name.
func (p StoragePolicy) String() string {
	switch p {
	case StorageAdaptive:
		return "adaptive"
	case StorageArray:
		return "array"
	case StorageBitmap:
		return "bitmap"
	default:
		return "unknown-policy"
	}
}

type tier uint8

const (
	tierArray tier = iota
	tierBitmap
	tierDense
)

// hubMinDegree floors the default hub threshold so small graphs build
// no dense rows at all (the lists are too short for bit probes to
// matter).
const hubMinDegree = 128

// hubFraction sets the default hub threshold to NumVertices/hubFraction:
// a row costs n/8 bytes versus 4·degree bytes for the list, so degree ≥
// n/32 is the break-even point where the bitset is no larger than the
// neighbor list it shadows. The dense tier's memory is then bounded by
// 2E/threshold rows × n/8 bytes = E bytes.
const hubFraction = 32

// defaultHubThreshold returns the hub degree threshold NewHybridAdj
// uses for a graph with n vertices.
func defaultHubThreshold(n int) int {
	return max(n/hubFraction, hubMinDegree)
}

// NewHybridAdj classifies every vertex of g under the policy.
// hubThreshold ≤ 0 selects the default hub threshold; it is ignored by
// the forced policies, which build no dense tier.
func NewHybridAdj(g *Graph, policy StoragePolicy, hubThreshold int) *HybridAdj {
	n := g.NumVertices()
	h := &HybridAdj{
		g:      g,
		policy: policy,
		tiers:  make([]tier, n),
	}
	if policy == StorageArray {
		return h
	}
	h.slot = make([]int32, n)
	h.rows = make([]atomic.Pointer[setops.Bitmap], n)
	if policy == StorageAdaptive {
		if hubThreshold <= 0 {
			hubThreshold = defaultHubThreshold(n)
		}
		h.buildDense(hubThreshold)
	}
	for v := 0; v < n; v++ {
		nv := g.Neighbors(uint32(v))
		if len(nv) == 0 || h.tiers[v] == tierDense {
			continue
		}
		if policy == StorageAdaptive {
			span := nv[len(nv)-1] - nv[0] + 1
			if setops.ChooseFormat(len(nv), span) != setops.FormatBitmap {
				continue
			}
		}
		h.tiers[v] = tierBitmap
		c := int32(1)
		for i := 1; i < len(nv); i++ {
			if nv[i]>>6 != nv[i-1]>>6 {
				c++
			}
		}
		h.slot[v] = c
		h.eligibleRows++
		h.eligibleBytes += 12 * int64(c)
	}
	return h
}

// buildDense puts every vertex of degree ≥ threshold in the dense tier,
// sizing the row storage exactly before filling it.
func (h *HybridAdj) buildDense(threshold int) {
	n := len(h.tiers)
	hubs := 0
	for v := 0; v < n; v++ {
		if h.g.Degree(uint32(v)) >= threshold {
			hubs++
		}
	}
	h.words = (n + 63) / 64
	h.dense = make([]uint64, hubs*h.words)
	i := int32(0)
	for v := 0; v < n; v++ {
		if h.g.Degree(uint32(v)) < threshold {
			continue
		}
		h.tiers[v], h.slot[v] = tierDense, i
		row := h.denseRow(uint32(v))
		for _, w := range h.g.Neighbors(uint32(v)) {
			row[w>>6] |= 1 << (w & 63)
		}
		i++
	}
}

// denseRow returns v's full-universe bitset; the caller has already
// checked the tier.
func (h *HybridAdj) denseRow(v uint32) []uint64 {
	i := int(h.slot[v]) * h.words
	return h.dense[i : i+h.words : i+h.words]
}

// Hybrid returns the graph's adaptive-policy hybrid view, building it on
// first use and caching it for the graph's lifetime. Safe for concurrent
// callers.
func (g *Graph) Hybrid() *HybridAdj {
	g.hybridOnce.Do(func() { g.hybridAdj = NewHybridAdj(g, StorageAdaptive, 0) })
	return g.hybridAdj
}

// Policy returns the classification policy the view was built with.
func (h *HybridAdj) Policy() StoragePolicy {
	if h == nil {
		return StorageArray
	}
	return h.policy
}

// BitmapRow returns v's compressed bitmap, materializing it on first
// use, or nil when v is not in the bitmap tier. The returned bitmap is
// shared and must not be modified.
func (h *HybridAdj) BitmapRow(v uint32) *setops.Bitmap {
	if h == nil || int(v) >= len(h.tiers) || h.tiers[v] != tierBitmap {
		return nil
	}
	return h.bitmapRow(v)
}

// bitmapRow materializes v's bitmap; the caller has already checked the
// tier.
func (h *HybridAdj) bitmapRow(v uint32) *setops.Bitmap {
	if b := h.rows[v].Load(); b != nil {
		return b
	}
	b := setops.NewBitmapFromSorted(h.g.Neighbors(v))
	if h.rows[v].CompareAndSwap(nil, b) {
		// Only the winning builder counts the row, so the footprint
		// tally stays exact under racing materializers.
		h.matRows.Add(1)
		h.matBytes.Add(b.Bytes())
		return b
	}
	return h.rows[v].Load()
}

// Rows returns v's stored representations — the dense full-universe
// bitset when v is in the dense tier, or its compressed bitmap
// (materializing lazily) when in the bitmap tier; at most one is
// non-nil. The tier check is a single slice load, so hot dispatch
// loops can call this per operand at no cost for the common array-tier
// vertex.
func (h *HybridAdj) Rows(v uint32) ([]uint64, *setops.Bitmap) {
	if h == nil || int(v) >= len(h.tiers) {
		return nil, nil
	}
	switch h.tiers[v] {
	case tierDense:
		return h.denseRow(v), nil
	case tierBitmap:
		return nil, h.bitmapRow(v)
	}
	return nil, nil
}

// HasStoredRow reports whether v's list lives in a non-array tier
// (dense row or compressed bitmap) without materializing anything —
// the membership-probe eligibility check of the set-centric PE model.
func (h *HybridAdj) HasStoredRow(v uint32) bool {
	return h != nil && int(v) < len(h.tiers) && h.tiers[v] != tierArray
}

// RowBytes returns the in-memory cost of v's neighbor list in its
// chosen tier: the dense row's words, the bitmap's containers, or the
// CSR slice itself. This is the fetch cost the set-centric PE model
// charges.
func (h *HybridAdj) RowBytes(v uint32) int64 {
	if h == nil || int(v) >= len(h.tiers) {
		return 0
	}
	switch h.tiers[v] {
	case tierDense:
		return int64(8 * h.words)
	case tierBitmap:
		return 12 * int64(h.slot[v])
	default:
		return h.g.NeighborBytes(v)
	}
}

// MaterializeAll eagerly builds every eligible bitmap row, so Footprint
// reports the full cost and steady-state mining never allocates.
func (h *HybridAdj) MaterializeAll() {
	if h == nil {
		return
	}
	for v := range h.tiers {
		if h.tiers[v] == tierBitmap {
			h.BitmapRow(uint32(v))
		}
	}
}

// Footprint is the memory cost of a hybrid view's non-array tiers.
type Footprint struct {
	// DenseRows / DenseBytes cover the hub tier's full-universe rows.
	DenseRows  int
	DenseBytes int64
	// BitmapRows / BitmapBytes cover every bitmap-eligible vertex at
	// its exact container cost, whether or not the row is materialized
	// yet — the number capacity planning wants.
	BitmapRows  int
	BitmapBytes int64
	// MaterializedRows / MaterializedBytes are the bitmap rows actually
	// built so far (≤ the eligible numbers; lazy materialization).
	MaterializedRows  int
	MaterializedBytes int64
}

// HybridBytes is the total non-array storage the view costs when fully
// materialized: the representation-mix number reported per graph by
// GraphInfo and per cell by simbench v4.
func (f Footprint) HybridBytes() int64 { return f.DenseBytes + f.BitmapBytes }

// Footprint returns the view's memory accounting. Safe to call
// concurrently with materialization.
func (h *HybridAdj) Footprint() Footprint {
	if h == nil {
		return Footprint{}
	}
	return Footprint{
		DenseRows:         len(h.dense) / max(h.words, 1),
		DenseBytes:        int64(8 * len(h.dense)),
		BitmapRows:        h.eligibleRows,
		BitmapBytes:       h.eligibleBytes,
		MaterializedRows:  int(h.matRows.Load()),
		MaterializedBytes: h.matBytes.Load(),
	}
}
