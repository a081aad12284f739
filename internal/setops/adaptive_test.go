package setops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mkbits builds a dense membership bitset over [0, universe) from a set.
func mkbits(universe int, members []uint32) []uint64 {
	bits := make([]uint64, (universe+63)/64)
	for _, v := range members {
		bits[v>>6] |= 1 << (v & 63)
	}
	return bits
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		if !eq(IntersectGallopingInto(nil, a, b), Intersect(a, b)) {
			return false
		}
		if !eq(SubtractGallopingInto(nil, a, b), Subtract(a, b)) {
			return false
		}
		if IntersectCountGalloping(a, b) != IntersectCount(a, b) {
			return false
		}
		scratch := append([]uint32(nil), a...)
		return eq(SubtractInPlace(scratch, b), Subtract(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsKernelsMatchMerge(t *testing.T) {
	const universe = 4096
	f := func(av, bv []uint32) bool {
		a, b := mksetMod(av, universe), mksetMod(bv, universe)
		bits := mkbits(universe, b)
		if !eq(IntersectBitsInto(nil, a, bits), Intersect(a, b)) {
			return false
		}
		if !eq(SubtractBitsInto(nil, a, bits), Subtract(a, b)) {
			return false
		}
		if IntersectCountBits(a, bits) != IntersectCount(a, b) {
			return false
		}
		scratch := append([]uint32(nil), a...)
		return eq(SubtractBitsInPlace(scratch, bits), Subtract(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitsContain(t *testing.T) {
	bits := mkbits(200, []uint32{0, 63, 64, 199})
	for _, v := range []uint32{0, 63, 64, 199} {
		if !BitsContain(bits, v) {
			t.Errorf("BitsContain(%d) = false", v)
		}
	}
	for _, v := range []uint32{1, 65, 198, 200, 1 << 20} {
		if BitsContain(bits, v) {
			t.Errorf("BitsContain(%d) = true", v)
		}
	}
}

// mksetMod is mkset with values folded into [0, universe), preserving
// strict ascent.
func mksetMod(vs []uint32, universe uint32) []uint32 {
	var out []uint32
	for _, v := range vs {
		v %= universe
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func TestGallopingIntoSkewedForced(t *testing.T) {
	big := make([]uint32, 8192)
	for i := range big {
		big[i] = uint32(i * 3)
	}
	small := []uint32{0, 7, 9, 300, 8191 * 3}
	if !eq(IntersectGallopingInto(nil, small, big), Intersect(small, big)) {
		t.Error("forced-gallop intersect diverges")
	}
	if !eq(IntersectGallopingInto(nil, big, small), Intersect(small, big)) {
		t.Error("forced-gallop intersect (swapped) diverges")
	}
	if !eq(SubtractGallopingInto(nil, small, big), Subtract(small, big)) {
		t.Error("forced-gallop subtract diverges")
	}
	if got, want := IntersectCountGalloping(small, big), IntersectCount(small, big); got != want {
		t.Errorf("forced-gallop count = %d, want %d", got, want)
	}
	scratch := append([]uint32(nil), small...)
	if !eq(SubtractInPlace(scratch, big), Subtract(small, big)) {
		t.Error("forced-gallop in-place subtract diverges")
	}
}

func TestGallopSearch(t *testing.T) {
	s := []uint32{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	cases := []struct {
		lo   int
		v    uint32
		want int
	}{
		{0, 1, 0},
		{0, 2, 0},
		{0, 3, 1},
		{0, 20, 9},
		{0, 21, 10},
		{5, 12, 5},
		{5, 100, 10},
	}
	for _, c := range cases {
		if got := gallopSearch(s, c.lo, c.v); got != c.want {
			t.Errorf("gallopSearch(lo=%d, v=%d) = %d, want %d", c.lo, c.v, got, c.want)
		}
	}
}

// TestGallopingMatchesMerge forces the galloping path with a long
// arithmetic progression against a short random set inside its range.
func TestGallopingMatchesMerge(t *testing.T) {
	f := func(av []uint32, stride uint8) bool {
		step := uint32(stride%7) + 1
		big := make([]uint32, GallopSkewThreshold*(len(av)+1))
		for i := range big {
			big[i] = uint32(i) * step
		}
		small := mksetMod(av, uint32(len(big))*step)
		if !eq(IntersectGallopingInto(nil, small, big), Intersect(small, big)) ||
			!eq(IntersectGallopingInto(nil, big, small), Intersect(small, big)) ||
			!eq(SubtractGallopingInto(nil, small, big), Subtract(small, big)) {
			return false
		}
		if IntersectCountGalloping(small, big) != IntersectCount(small, big) {
			return false
		}
		scratch := append([]uint32(nil), small...)
		return eq(SubtractInPlace(scratch, big), Subtract(small, big))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGallopingSkewedInputs(t *testing.T) {
	// Force the galloping path: a tiny random set against a huge one.
	rng := rand.New(rand.NewSource(5))
	big := make([]uint32, 10000)
	for i := range big {
		big[i] = uint32(i * 3)
	}
	for trial := 0; trial < 20; trial++ {
		small := randomSet(rng, 20, 30000)
		if !eq(IntersectGallopingInto(nil, small, big), Intersect(small, big)) {
			t.Fatal("galloping intersect diverges on skewed inputs")
		}
		if !eq(SubtractGallopingInto(nil, small, big), Subtract(small, big)) {
			t.Fatal("galloping subtract diverges on skewed inputs")
		}
		// Argument order must not matter for intersection.
		if got, want := IntersectCountGalloping(big, small), IntersectCount(small, big); got != want {
			t.Fatalf("galloping count (swapped) = %d, want %d", got, want)
		}
	}
}

func BenchmarkIntersectGallopingSkewed(b *testing.B) {
	big := make([]uint32, 100000)
	for i := range big {
		big[i] = uint32(i * 2)
	}
	small := []uint32{5, 1001, 20002, 40005, 80000, 160001, 199998}
	dst := make([]uint32, 0, len(small))
	b.Run("gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectGallopingInto(dst[:0], small, big)
		}
	})
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectInto(dst[:0], small, big)
		}
	})
}
