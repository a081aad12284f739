package graph

import (
	"sync"
	"testing"

	"fingers/internal/setops"
)

// hybridTestGraph builds a graph with all three tiers populated: a
// 40-clique (dense over its span → bitmap tier), one hub wired to
// everything (dense tier under a low threshold), and a sparse path
// (array tier).
func hybridTestGraph() *Graph {
	b := NewBuilder(0)
	for i := uint32(0); i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			b.AddEdge(i, j)
		}
	}
	hub := uint32(200)
	for i := uint32(0); i < 120; i++ {
		b.AddEdge(hub, i)
	}
	for i := uint32(300); i < 330; i++ {
		b.AddEdge(i, i+60)
	}
	return b.Build()
}

func TestHybridAdjTiers(t *testing.T) {
	g := hybridTestGraph()
	h := NewHybridAdj(g, StorageAdaptive, 100) // hub=200 (deg 120) qualifies
	if row, _ := h.Rows(200); row == nil {
		t.Fatal("vertex 200 should be in the dense tier")
	}
	if h.BitmapRow(200) != nil {
		t.Fatal("dense vertex must not also have a bitmap row")
	}
	// Clique member: 39 neighbors in a span of 40+ (plus the hub edge).
	if h.BitmapRow(1) == nil {
		t.Fatal("clique vertex 1 should be in the bitmap tier")
	}
	if got := h.BitmapRow(1).AppendTo(nil); !equalU32(got, g.Neighbors(1)) {
		t.Fatalf("bitmap row decode = %v, want %v", got, g.Neighbors(1))
	}
	// Path vertex: one neighbor far away.
	if row, bm := h.Rows(305); row != nil || bm != nil {
		t.Fatal("sparse vertex 305 should stay on the array tier")
	}
	if got, want := h.RowBytes(305), g.NeighborBytes(305); got != want {
		t.Fatalf("array-tier RowBytes = %d, want %d", got, want)
	}
}

func hubTestGraph() *Graph {
	// Star center 0 with 10 leaves, plus a 1-2 edge for a non-hub op.
	b := NewBuilder(11)
	for v := uint32(1); v <= 10; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	return b.Build()
}

func TestHybridDenseRows(t *testing.T) {
	g := hubTestGraph()
	h := NewHybridAdj(g, StorageAdaptive, 5)
	if fp := h.Footprint(); fp.DenseRows != 1 || fp.DenseBytes != 8 {
		t.Fatalf("dense tier = %d rows / %d bytes, want 1 / 8 (only the star center)", fp.DenseRows, fp.DenseBytes)
	}
	row, bm := h.Rows(0)
	if row == nil || bm != nil {
		t.Fatal("center has no dense row")
	}
	for v := 0; v < g.NumVertices(); v++ {
		got := row[v>>6]&(1<<(uint(v)&63)) != 0
		if want := g.HasEdge(0, uint32(v)); got != want {
			t.Errorf("row bit %d = %v, want %v", v, got, want)
		}
	}
	if row, _ := h.Rows(1); row != nil {
		t.Error("leaf vertex has a dense row")
	}
	var nilView *HybridAdj
	if row, bm := nilView.Rows(0); row != nil || bm != nil {
		t.Error("nil view returned a row")
	}
}

func TestHubsCachedAndDefaultThreshold(t *testing.T) {
	g := hubTestGraph()
	if g.Hybrid() != g.Hybrid() {
		t.Error("hybrid view not cached")
	}
	// Default threshold floors at hubMinDegree, so this tiny graph has none.
	if n := g.Hybrid().Footprint().DenseRows; n != 0 {
		t.Errorf("tiny graph has %d default dense rows, want 0", n)
	}
	if got := defaultHubThreshold(100); got != hubMinDegree {
		t.Errorf("defaultHubThreshold(100) = %d, want floor %d", got, hubMinDegree)
	}
	if got := defaultHubThreshold(1 << 20); got != (1<<20)/hubFraction {
		t.Errorf("defaultHubThreshold(1M) = %d", got)
	}
}

func TestHybridAdjForcedPolicies(t *testing.T) {
	g := hybridTestGraph()
	arr := NewHybridAdj(g, StorageArray, 0)
	for v := 0; v < g.NumVertices(); v++ {
		if row, bm := arr.Rows(uint32(v)); row != nil || bm != nil {
			t.Fatalf("forced-array policy materialized a row for %d", v)
		}
	}
	if fp := arr.Footprint(); fp.HybridBytes() != 0 {
		t.Fatalf("forced-array footprint = %+v, want zero", fp)
	}
	bm := NewHybridAdj(g, StorageBitmap, 0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) == 0 {
			continue
		}
		row := bm.BitmapRow(uint32(v))
		if row == nil {
			t.Fatalf("forced-bitmap policy left vertex %d without a row", v)
		}
		if got := row.AppendTo(nil); !equalU32(got, g.Neighbors(uint32(v))) {
			t.Fatalf("vertex %d bitmap decode mismatch", v)
		}
	}
}

func TestHybridFootprintExact(t *testing.T) {
	g := hybridTestGraph()
	h := NewHybridAdj(g, StorageAdaptive, 100)
	before := h.Footprint()
	if before.MaterializedRows != 0 {
		t.Fatalf("rows materialized before first use: %+v", before)
	}
	h.MaterializeAll()
	after := h.Footprint()
	if after.MaterializedRows != after.BitmapRows || after.MaterializedBytes != after.BitmapBytes {
		t.Fatalf("materialized %d rows/%d bytes, eligible %d rows/%d bytes — the eager counts must match the classification",
			after.MaterializedRows, after.MaterializedBytes, after.BitmapRows, after.BitmapBytes)
	}
	// Cross-check the classification-time byte estimate against the
	// rows actually built.
	var sum int64
	var rows int
	for v := 0; v < g.NumVertices(); v++ {
		if b := h.BitmapRow(uint32(v)); b != nil {
			sum += b.Bytes()
			rows++
		}
	}
	if sum != after.BitmapBytes || rows != after.BitmapRows {
		t.Fatalf("summed row bytes %d (%d rows) != footprint %d (%d rows)",
			sum, rows, after.BitmapBytes, after.BitmapRows)
	}
	if after.DenseRows != 1 || after.DenseBytes != h.RowBytes(200) {
		t.Fatalf("dense tier accounting mismatch: %+v", after)
	}
	if after.HybridBytes() != after.DenseBytes+after.BitmapBytes {
		t.Fatalf("HybridBytes = %d", after.HybridBytes())
	}
}

func TestHybridConcurrentMaterialize(t *testing.T) {
	g := hybridTestGraph()
	h := NewHybridAdj(g, StorageBitmap, 0)
	var wg sync.WaitGroup
	rows := make([][]*setops.Bitmap, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = make([]*setops.Bitmap, g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				rows[w][v] = h.BitmapRow(uint32(v))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for v := range rows[w] {
			if rows[w][v] != rows[0][v] {
				t.Fatalf("worker %d saw a different row pointer for vertex %d", w, v)
			}
		}
	}
	fp := h.Footprint()
	if fp.MaterializedRows != fp.BitmapRows {
		t.Fatalf("materialized %d of %d rows", fp.MaterializedRows, fp.BitmapRows)
	}
}

func TestGraphHybridCached(t *testing.T) {
	g := hybridTestGraph()
	if g.Hybrid() != g.Hybrid() {
		t.Fatal("Hybrid() must cache")
	}
	if g.Hybrid().Policy() != StorageAdaptive {
		t.Fatal("cached view must be adaptive")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
