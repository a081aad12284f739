package setops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentationBasics(t *testing.T) {
	data := []uint32{1, 2, 3, 4, 5, 6, 7}
	s := Segment(data, 3)
	if got := s.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3", got)
	}
	if got := s.Seg(0); !eq(got, []uint32{1, 2, 3}) {
		t.Errorf("Seg(0) = %v", got)
	}
	if got := s.Seg(2); !eq(got, []uint32{7}) {
		t.Errorf("Seg(2) = %v", got)
	}
	if got := s.Heads(); !eq(got, []uint32{1, 4, 7}) {
		t.Errorf("Heads = %v", got)
	}
}

func TestSegmentationEmpty(t *testing.T) {
	s := Segment(nil, 4)
	if s.NumSegments() != 0 {
		t.Errorf("NumSegments(empty) = %d", s.NumSegments())
	}
	if len(s.Heads()) != 0 {
		t.Errorf("Heads(empty) = %v", s.Heads())
	}
}

func TestSegmentPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Segment(…, 0) did not panic")
		}
	}()
	Segment([]uint32{1}, 0)
}

// TestPairFigure4 reproduces the pairing of Figure 4 in the paper: the
// short set {3,12,14,27,33,55} (segments of 2) against the long set
// {2,8,9,25,26,40,42,48,50,58,82,…} style ranges.
func TestPairFigure4(t *testing.T) {
	short := Segment([]uint32{3, 12, 14, 27, 33, 55}, 2)
	long := Segment([]uint32{2, 5, 9, 25, 26, 40, 42, 48, 50, 58}, 2)
	p := Pair(long, short)
	// Short seg [3,12] overlaps long segs [2,5] and [9,25].
	// Short seg [14,27] overlaps long segs [9,25] and [26,40].
	// Short seg [33,55] overlaps long segs [26,40], [42,48] and [50,58].
	wantLoads := []SegLoad{
		{ShortStart: 0, ShortCount: 1}, // [2,5] ← [3,12]
		{ShortStart: 0, ShortCount: 2}, // [9,25] ← [3,12],[14,27]
		{ShortStart: 1, ShortCount: 2}, // [26,40] ← [14,27],[33,55]
		{ShortStart: 2, ShortCount: 1}, // [42,48] ← [33,55]
		{ShortStart: 2, ShortCount: 1}, // [50,58] ← [33,55]
	}
	if len(p.Loads) != len(wantLoads) {
		t.Fatalf("got %d loads, want %d", len(p.Loads), len(wantLoads))
	}
	for i, want := range wantLoads {
		if p.Loads[i] != want {
			t.Errorf("load[%d] = %+v, want %+v", i, p.Loads[i], want)
		}
	}
	if p.SearchSteps <= 0 {
		t.Error("SearchSteps not accounted")
	}
}

func TestPairDisjointRanges(t *testing.T) {
	short := Segment([]uint32{1, 2, 3, 4}, 4)
	long := Segment([]uint32{100, 200}, 16)
	p := Pair(long, short)
	if p.Loads[0].ShortCount != 0 {
		t.Errorf("disjoint ranges paired: %+v", p.Loads[0])
	}
}

// TestPairIntoMatchesOverlapDefinition checks the long-major join
// against the pairing's definition — long segment k is paired with every
// short segment whose value range overlaps its own — on random sets and
// segment geometries, reusing one Pairing so stale Loads entries from a
// larger earlier call would show.
func TestPairIntoMatchesOverlapDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := [][2]int{{16, 4}, {4, 2}, {1, 1}, {3, 5}}
	var p Pairing
	for trial := 0; trial < 500; trial++ {
		for _, g := range geoms {
			long := Segment(randomSet(rng, 150, 400), g[0])
			short := Segment(randomSet(rng, 80, 400), g[1])
			PairInto(&p, long, short)
			nl, ns := long.NumSegments(), short.NumSegments()
			if len(p.Loads) != nl {
				t.Fatalf("geom %v: %d loads for %d long segments", g, len(p.Loads), nl)
			}
			for k := 0; k < nl; k++ {
				want := SegLoad{}
				for i := 0; i < ns; i++ {
					if short.segMax(i) < long.segMin(k) || short.segMin(i) > long.segMax(k) {
						continue
					}
					if want.ShortCount == 0 {
						want.ShortStart = i
					}
					want.ShortCount++
				}
				if p.Loads[k] != want {
					t.Fatalf("geom %v long %d: load %+v, want %+v", g, k, p.Loads[k], want)
				}
			}
			wantSteps := 0
			if nl > 0 && ns > 0 {
				depth := 1
				for 1<<depth < nl+1 {
					depth++
				}
				wantSteps = ns * depth
			}
			if p.SearchSteps != wantSteps {
				t.Fatalf("geom %v: SearchSteps %d, want %d", g, p.SearchSteps, wantSteps)
			}
		}
	}
}

func TestBalanceMaxLoadSplit(t *testing.T) {
	// One long segment overlapped by 5 short segments, maxLoad 2 → 3 workloads.
	long := Segment([]uint32{0, 100}, 16)
	short := Segment([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2)
	p := Pair(long, short)
	ws := Balance(p, OpIntersect, 2)
	if len(ws) != 3 {
		t.Fatalf("got %d workloads, want 3", len(ws))
	}
	total := 0
	for _, w := range ws {
		if w.ShortCount > 2 {
			t.Errorf("workload exceeds maxLoad: %+v", w)
		}
		total += w.ShortCount
	}
	if total != 5 {
		t.Errorf("short segments covered = %d, want 5", total)
	}
}

func TestBalanceSkipsZeroLoadForIntersect(t *testing.T) {
	long := Segment([]uint32{1, 2, 50, 60, 100, 110}, 2)
	short := Segment([]uint32{55}, 4)
	p := Pair(long, short)
	if got := len(Balance(p, OpIntersect, 4)); got != 1 {
		t.Errorf("intersect workloads = %d, want 1", got)
	}
	// Anti-subtraction must keep the zero-load long segments.
	if got := len(Balance(p, OpAntiSubtract, 4)); got != 3 {
		t.Errorf("anti-subtract workloads = %d, want 3", got)
	}
}

func TestBalanceSubtractCoversUnpairedShorts(t *testing.T) {
	long := Segment([]uint32{50, 51}, 16)
	short := Segment([]uint32{1, 2, 3, 4, 50, 52, 53, 54, 100, 101}, 4)
	p := Pair(long, short)
	ws := Balance(p, OpSubtract, 4)
	seen := map[int]bool{}
	for _, w := range ws {
		for s := w.ShortStart; s < w.ShortStart+w.ShortCount; s++ {
			seen[s] = true
		}
	}
	for s := 0; s < short.NumSegments(); s++ {
		if !seen[s] {
			t.Errorf("short segment %d not covered by any workload", s)
		}
	}
}

func TestWorkloadLengths(t *testing.T) {
	long := Segment([]uint32{1, 2, 3, 4, 5}, 4)
	short := Segment([]uint32{2, 3}, 2)
	p := Pair(long, short)
	w := Workload{LongSeg: 0, ShortStart: 0, ShortCount: 1}
	if w.LongLen(p) != 4 || w.ShortLen(p) != 2 {
		t.Errorf("lengths = %d,%d want 4,2", w.LongLen(p), w.ShortLen(p))
	}
	unpaired := Workload{LongSeg: -1, ShortStart: 0, ShortCount: 1}
	if unpaired.LongLen(p) != 0 {
		t.Error("unpaired workload long length should be 0")
	}
}

// TestSegmentedApplyMatchesApply is the central fidelity property: the
// whole segment pipeline (pairing, balancing, compare units, bitvector
// aggregation) must compute exactly what the plain merge computes, for all
// three operations and arbitrary segment geometries.
func TestSegmentedApplyMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []Op{OpIntersect, OpSubtract, OpAntiSubtract}
	geoms := [][3]int{{16, 4, 3}, {4, 2, 1}, {1, 1, 1}, {64, 8, 2}, {3, 5, 2}}
	for trial := 0; trial < 400; trial++ {
		s := randomSet(rng, 60, 300)
		n := randomSet(rng, 120, 300)
		for _, op := range ops {
			for _, g := range geoms {
				got, stats := SegmentedApply(op, s, n, g[0], g[1], g[2])
				want := Apply(op, s, n)
				if !eq(got, want) {
					t.Fatalf("op=%v geom=%v s=%v n=%v: got %v want %v", op, g, s, n, got, want)
				}
				if len(stats.WorkloadCycles) != stats.Workloads {
					t.Fatalf("stats inconsistent: %+v", stats)
				}
			}
		}
	}
}

func TestSegmentedApplyQuick(t *testing.T) {
	f := func(sv, nv []uint32, opSel uint8) bool {
		s, n := mkset(sv), mkset(nv)
		op := Op(opSel % 3)
		got, _ := SegmentedApply(op, s, n, DefaultLongSegLen, DefaultShortSegLen, 2)
		return eq(got, Apply(op, s, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentedApplyEmptyInputs(t *testing.T) {
	s := []uint32{1, 2, 3}
	if got, _ := SegmentedApply(OpIntersect, nil, s, 16, 4, 2); len(got) != 0 {
		t.Errorf("∅∩s = %v", got)
	}
	if got, _ := SegmentedApply(OpSubtract, s, nil, 16, 4, 2); !eq(got, s) {
		t.Errorf("s−∅ = %v", got)
	}
	if got, _ := SegmentedApply(OpAntiSubtract, nil, s, 16, 4, 2); !eq(got, s) {
		t.Errorf("anti: s−∅ = %v", got)
	}
	if got, _ := SegmentedApply(OpAntiSubtract, s, nil, 16, 4, 2); len(got) != 0 {
		t.Errorf("anti: ∅−s = %v", got)
	}
}

func TestCompareCyclesModel(t *testing.T) {
	// One long segment of 16 paired with 3 short segments of 4 must cost
	// about s_l + 3·s_s = 28 comparator cycles (§4.3).
	long := make([]uint32, 16)
	for i := range long {
		long[i] = uint32(i * 2)
	}
	short := []uint32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	_, stats := SegmentedApply(OpIntersect, short, long, 16, 4, 3)
	if stats.Workloads != 1 {
		t.Fatalf("workloads = %d, want 1", stats.Workloads)
	}
	if stats.CompareCycles != 28 {
		t.Errorf("compare cycles = %d, want 28", stats.CompareCycles)
	}
}

func TestBitvecOps(t *testing.T) {
	b := NewBitvec(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("bitvec get/set mismatch")
	}
	o := NewBitvec(130)
	o.Set(65)
	b.Or(o)
	if !b.Get(65) || !b.Get(64) {
		t.Error("bitvec OR mismatch")
	}
}

func TestCollectorMergesSameSegment(t *testing.T) {
	seg := []uint32{10, 20, 30, 40}
	c := NewCollector(OpIntersect)
	b1 := NewBitvec(4)
	b1.Set(0)
	b2 := NewBitvec(4)
	b2.Set(2)
	c.Add(SegResult{Assoc: 0, Seg: seg, Bits: b1})
	c.Add(SegResult{Assoc: 0, Seg: seg, Bits: b2})
	if got := c.Finish(); !eq(got, []uint32{10, 30}) {
		t.Errorf("collector = %v, want [10 30]", got)
	}
}

func TestCollectorSubtractKeepsZeros(t *testing.T) {
	seg := []uint32{10, 20, 30}
	c := NewCollector(OpSubtract)
	b := NewBitvec(3)
	b.Set(1)
	c.Add(SegResult{Assoc: 0, Seg: seg, Bits: b})
	if got := c.Finish(); !eq(got, []uint32{10, 30}) {
		t.Errorf("collector = %v, want [10 30]", got)
	}
}

// TestFigure8Subtraction replays the worked example of §4.3: short segment
// {11,18} paired with long segments {3,5,7,12} and {13,15,18,22} under
// subtraction must yield {11}.
func TestFigure8Subtraction(t *testing.T) {
	s := []uint32{11, 18}
	n := []uint32{3, 5, 7, 12, 13, 15, 18, 22}
	got, _ := SegmentedApply(OpSubtract, s, n, 4, 2, 2)
	if !eq(got, []uint32{11}) {
		t.Errorf("Figure 8 subtraction = %v, want [11]", got)
	}
}
