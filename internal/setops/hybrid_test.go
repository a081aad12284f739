package setops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// adversarialSets is the shared grid of densities the hybrid kernels
// must survive: empty, singleton, full-universe runs, clustered bursts,
// container-boundary values, and sparse spreads.
func adversarialSets() [][]uint32 {
	full := make([]uint32, 256)
	for i := range full {
		full[i] = uint32(i)
	}
	clustered := []uint32{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 1001, 1002, 1003, 1004}
	sparse := []uint32{7, 300, 9000, 70000, 1 << 20, 1 << 25, 1<<31 + 5}
	boundary := []uint32{63, 64, 127, 128, 191, 192}
	run := make([]uint32, 100)
	for i := range run {
		run[i] = uint32(500 + i)
	}
	return [][]uint32{
		nil,
		{},
		{42},
		{0},
		{1<<32 - 1},
		full,
		clustered,
		sparse,
		boundary,
		run,
		{0, 1<<32 - 1},
	}
}

func TestChooseFormat(t *testing.T) {
	cases := []struct {
		card int
		span uint32
		want Format
	}{
		{0, 0, FormatArray},
		{1, 1, FormatArray},        // 4 bytes < 12
		{3, 1, FormatBitmap},       // 12 >= 12·1
		{64, 64, FormatBitmap},     // full container
		{10, 1 << 20, FormatArray}, // sparse spread
		{1000, 1100, FormatBitmap}, // dense run
		{100, 6400, FormatArray},   // one per container: 400 < 12·101
		{400, 6400, FormatBitmap},  // four per container
	}
	for _, c := range cases {
		if got := ChooseFormat(c.card, c.span); got != c.want {
			t.Errorf("ChooseFormat(%d, %d) = %v, want %v", c.card, c.span, got, c.want)
		}
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	for i, s := range adversarialSets() {
		b := NewBitmapFromSorted(s)
		if b.Card() != len(s) {
			t.Errorf("set %d: Card = %d, want %d", i, b.Card(), len(s))
		}
		got := b.AppendTo(nil)
		if len(got) == 0 && len(s) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, []uint32(s)) {
			t.Errorf("set %d: round trip = %v, want %v", i, got, s)
		}
		for _, v := range s {
			if !b.Contains(v) {
				t.Errorf("set %d: Contains(%d) = false", i, v)
			}
		}
		if len(s) > 0 && b.Contains(s[0]+1) != Contains(s, s[0]+1) {
			t.Errorf("set %d: Contains(%d) disagrees with array", i, s[0]+1)
		}
		containers := map[uint32]bool{}
		for _, v := range s {
			containers[v>>6] = true
		}
		if b.Bytes() != int64(12*len(containers)) {
			t.Errorf("set %d: Bytes = %d, want %d", i, b.Bytes(), 12*len(containers))
		}
	}
}

// maxBitsUniverse caps the dense bitsets the kernel checks build: the
// bits kernels need a row covering every probed value, so pairs holding
// larger values skip them.
const maxBitsUniverse = 1 << 20

// denseBits returns s as a full-universe bitset over [0, universe).
func denseBits(s []uint32, universe uint32) []uint64 {
	w := make([]uint64, (universe+63)/64)
	for _, v := range s {
		w[v>>6] |= 1 << (v & 63)
	}
	return w
}

// universeOf returns one more than the largest value of a and b, or
// false when that exceeds maxBitsUniverse.
func universeOf(a, b []uint32) (uint32, bool) {
	var top uint32
	for _, s := range [][]uint32{a, b} {
		if len(s) > 0 && s[len(s)-1] > top {
			top = s[len(s)-1]
		}
	}
	return top + 1, top < maxBitsUniverse
}

// checkHybridPair runs every kernel the miners dispatch to on (a, b) —
// b in each storage form the hybrid view keeps (array, compressed
// bitmap, dense bitset) — and compares against the merge oracles.
func checkHybridPair(t *testing.T, a, b []uint32) {
	t.Helper()
	wantI := Intersect(a, b)
	wantS := Subtract(a, b)
	check := func(name string, got []uint32, want []uint32) {
		t.Helper()
		if !equalSets(got, want) {
			t.Errorf("%s(%v, %v) = %v, want %v", name, a, b, got, want)
		}
	}
	checkCount := func(name string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s(%v, %v) = %d, want %d", name, a, b, got, want)
		}
	}
	inPlace := func(f func([]uint32) []uint32) []uint32 {
		return f(append([]uint32(nil), a...))
	}

	// array × array: merge and galloping.
	check("IntersectInto", IntersectInto(nil, a, b), wantI)
	check("SubtractInto", SubtractInto(nil, a, b), wantS)
	checkCount("IntersectCount", IntersectCount(a, b), len(wantI))
	check("IntersectGallopingInto", IntersectGallopingInto(nil, a, b), wantI)
	check("IntersectGallopingInto(swapped)", IntersectGallopingInto(nil, b, a), wantI)
	check("SubtractGallopingInto", SubtractGallopingInto(nil, a, b), wantS)
	checkCount("IntersectCountGalloping", IntersectCountGalloping(a, b), len(wantI))
	check("SubtractInPlace", inPlace(func(s []uint32) []uint32 { return SubtractInPlace(s, b) }), wantS)
	for _, op := range []Op{OpIntersect, OpSubtract, OpAntiSubtract} {
		check("ApplyInto/"+op.String(), ApplyInto(op, nil, a, b), Apply(op, a, b))
	}

	// array × bitmap: container probes.
	bm := NewBitmapFromSorted(b)
	check("IntersectArrayBitmapInto", IntersectArrayBitmapInto(nil, a, bm), wantI)
	check("SubtractArrayBitmapInto", SubtractArrayBitmapInto(nil, a, bm), wantS)
	checkCount("IntersectArrayBitmapCount", IntersectArrayBitmapCount(a, bm), len(wantI))
	check("SubtractArrayBitmapInPlace", inPlace(func(s []uint32) []uint32 { return SubtractArrayBitmapInPlace(s, bm) }), wantS)
	checkCount("IntersectBitmapsCount", IntersectBitmapsCount(NewBitmapFromSorted(a), bm), len(wantI))

	// array × dense bitset: one word probe per element.
	universe, ok := universeOf(a, b)
	if !ok {
		return
	}
	bits := denseBits(b, universe)
	check("IntersectBitsInto", IntersectBitsInto(nil, a, bits), wantI)
	check("SubtractBitsInto", SubtractBitsInto(nil, a, bits), wantS)
	checkCount("IntersectCountBits", IntersectCountBits(a, bits), len(wantI))
	check("SubtractBitsInPlace", inPlace(func(s []uint32) []uint32 { return SubtractBitsInPlace(s, bits) }), wantS)
	for _, v := range a {
		if got, want := BitsContain(bits, v), Contains(b, v); got != want {
			t.Errorf("BitsContain(%v, %d) = %v, want %v", b, v, got, want)
		}
	}
}

// checkBoundedPair runs the bounded popcount kernels on (a, b) under
// every combination of the window edges lo and hi against the
// brute-force window filter.
func checkBoundedPair(t *testing.T, a, b []uint32, lo, hi uint32) {
	t.Helper()
	ba, bb := NewBitmapFromSorted(a), NewBitmapFromSorted(b)
	universe, dense := universeOf(a, b)
	var da, db []uint64
	if dense {
		da, db = denseBits(a, universe), denseBits(b, universe)
	}
	for _, w := range []struct{ hasLo, hasHi bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		wantA := len(bruteBounded(a, lo, hi, w.hasLo, w.hasHi))
		wantAB := len(bruteBounded(Intersect(a, b), lo, hi, w.hasLo, w.hasHi))
		got := map[string]int{
			"CountBounded":                 ba.CountBounded(lo, hi, w.hasLo, w.hasHi),
			"IntersectBitmapsCountBounded": IntersectBitmapsCountBounded(ba, bb, lo, hi, w.hasLo, w.hasHi),
		}
		want := map[string]int{"CountBounded": wantA, "IntersectBitmapsCountBounded": wantAB}
		if dense {
			got["IntersectBitmapBitsCountBounded"] = IntersectBitmapBitsCountBounded(ba, db, lo, hi, w.hasLo, w.hasHi)
			got["CountBitsBounded"] = CountBitsBounded(da, lo, hi, w.hasLo, w.hasHi)
			got["IntersectBitsCountBounded"] = IntersectBitsCountBounded(da, db, lo, hi, w.hasLo, w.hasHi)
			want["IntersectBitmapBitsCountBounded"] = wantAB
			want["CountBitsBounded"] = wantA
			want["IntersectBitsCountBounded"] = wantAB
		}
		for name, n := range got {
			if n != want[name] {
				t.Errorf("%s(%v, %v, lo=%d hi=%d %+v) = %d, want %d", name, a, b, lo, hi, w, n, want[name])
			}
		}
	}
}

// windowEdges picks window edges from the inputs so boundaries are hit.
func windowEdges(a, b []uint32) (lo, hi uint32) {
	lo, hi = 0, 1<<32-1
	if len(a) > 0 {
		lo = a[len(a)/2]
	}
	if len(b) > 0 {
		hi = b[len(b)/2]
	}
	return lo, hi
}

func equalSets(a, b []uint32) bool {
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

func TestHybridKernelMatrix(t *testing.T) {
	sets := adversarialSets()
	for i, a := range sets {
		for j, b := range sets {
			t.Run(fmt.Sprintf("%dx%d", i, j), func(t *testing.T) {
				checkHybridPair(t, a, b)
				lo, hi := windowEdges(a, b)
				checkBoundedPair(t, a, b, lo, hi)
			})
		}
	}
}

// bruteBounded filters s to the open window (lo, hi).
func bruteBounded(s []uint32, lo, hi uint32, hasLo, hasHi bool) []uint32 {
	var out []uint32
	for _, v := range s {
		if hasLo && v <= lo {
			continue
		}
		if hasHi && v >= hi {
			continue
		}
		out = append(out, v)
	}
	return out
}

func TestBoundedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := uint32(2048)
	randSet := func(n int) []uint32 {
		seen := map[uint32]bool{}
		var out []uint32
		for len(out) < n {
			v := uint32(rng.Intn(int(universe)))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sortU32(out)
		return out
	}
	for trial := 0; trial < 200; trial++ {
		a := randSet(rng.Intn(120))
		b := randSet(rng.Intn(120))
		lo := uint32(rng.Intn(int(universe)))
		hi := uint32(rng.Intn(int(universe)))
		checkBoundedPair(t, a, b, lo, hi)
		if t.Failed() {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
