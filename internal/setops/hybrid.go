package setops

// SISA-style hybrid set storage (PAPERS.md, SISA). The merge, gallop
// and bits kernels in adaptive.go dispatch per *call*; this file makes
// the *storage* adaptive per set: a neighbor list is kept either as the
// package's native sorted []uint32 or as a roaring-like compressed
// bitmap — 64-bit word containers keyed by the value's high bits, with
// only the nonzero containers stored — chosen by a density heuristic
// (ChooseFormat). The kernels here are the ones the miners dispatch to:
// intersect and subtract of an array against a bitmap (container probes
// that gallop through the key list), and the bounded popcount kernels of
// the software miner's leaf fast path, which count |a ∩ b| or |a|
// restricted to an open interval (lo, hi) — the symmetry-breaking
// window — without decoding, via partial-word masks at the boundary
// containers.
//
// Aliasing contract: identical to the rest of the package.

import "math/bits"

// Format identifies the physical representation of one hybrid set.
type Format uint8

const (
	// FormatArray stores the set as a strictly increasing []uint32.
	FormatArray Format = iota
	// FormatBitmap stores the set as a compressed bitmap of nonzero
	// 64-bit word containers.
	FormatBitmap
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatArray:
		return "array"
	case FormatBitmap:
		return "bitmap"
	default:
		return "unknown-format"
	}
}

// bitmapWordBytes is the in-memory cost of one stored container: a
// 4-byte key plus an 8-byte word.
const bitmapWordBytes = 12

// ChooseFormat picks the cheaper representation for a set of the given
// cardinality whose values span the half-open range [first, first+span)
// — span is last−first+1 for a nonempty set. An array costs 4 bytes per
// element; a bitmap costs at most 12 bytes per container (4-byte key +
// 8-byte word) and the span bounds the container count by span/64+1, so
// the bitmap wins once the set packs at least three elements per
// potential container. Dense sets (cliques, hubs of community graphs)
// clear that easily; sparse power-law tails never do.
func ChooseFormat(card int, span uint32) Format {
	if card == 0 {
		return FormatArray
	}
	maxContainers := int(span>>6) + 1
	if 4*card >= bitmapWordBytes*maxContainers {
		return FormatBitmap
	}
	return FormatArray
}

// Bitmap is a compressed bitmap over uint32 values: strictly increasing
// container keys (value >> 6) with a parallel slice of nonzero 64-bit
// words. Absent containers are all-zero. The zero value is the empty
// set.
type Bitmap struct {
	keys  []uint32
	words []uint64
	card  int
}

// NewBitmapFromSorted builds a bitmap from a strictly increasing slice.
func NewBitmapFromSorted(s []uint32) *Bitmap {
	b := &Bitmap{card: len(s)}
	for i := 0; i < len(s); {
		key := s[i] >> 6
		var w uint64
		for i < len(s) && s[i]>>6 == key {
			w |= 1 << (s[i] & 63)
			i++
		}
		b.keys = append(b.keys, key)
		b.words = append(b.words, w)
	}
	return b
}

// Card returns the cardinality.
func (b *Bitmap) Card() int {
	if b == nil {
		return 0
	}
	return b.card
}

// Bytes returns the in-memory footprint of the container storage.
func (b *Bitmap) Bytes() int64 {
	if b == nil {
		return 0
	}
	return int64(len(b.keys)) * bitmapWordBytes
}

// Contains reports membership of v, binary-searching the key list.
func (b *Bitmap) Contains(v uint32) bool {
	if b == nil {
		return false
	}
	key := v >> 6
	i := LowerBound(b.keys, key)
	return i < len(b.keys) && b.keys[i] == key && b.words[i]&(1<<(v&63)) != 0
}

// AppendTo appends the set's elements to dst in increasing order and
// returns the extended slice.
func (b *Bitmap) AppendTo(dst []uint32) []uint32 {
	if b == nil {
		return dst
	}
	for i, key := range b.keys {
		base := key << 6
		w := b.words[i]
		for w != 0 {
			dst = append(dst, base|uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ---------------------------------------------------------------------
// array × bitmap probe kernels
//
// Both the array and the bitmap's key list are sorted, so a probe walks
// the key list monotonically, galloping when the array jumps containers.

// probeAdvance returns the first index i ≥ j with keys[i] >= key.
func probeAdvance(keys []uint32, j int, key uint32) int {
	return gallopSearch(keys, j, key)
}

// IntersectArrayBitmapInto appends a ∩ b to dst: one container probe
// per element of a, O(|a| · log containers) worst case but O(|a|) on
// clustered inputs. The result is sorted.
func IntersectArrayBitmapInto(dst, a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(a) == 0 || len(b.keys) == 0 {
		return dst
	}
	j := 0
	for _, v := range a {
		key := v >> 6
		if b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
			if j == len(b.keys) {
				break
			}
			if b.keys[j] != key {
				continue
			}
		}
		if b.words[j]&(1<<(v&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// IntersectArrayBitmapCount returns |a ∩ b| without materializing.
func IntersectArrayBitmapCount(a []uint32, b *Bitmap) int {
	if b == nil || len(a) == 0 || len(b.keys) == 0 {
		return 0
	}
	j, n := 0, 0
	for _, v := range a {
		key := v >> 6
		if b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
			if j == len(b.keys) {
				break
			}
			if b.keys[j] != key {
				continue
			}
		}
		if b.words[j]&(1<<(v&63)) != 0 {
			n++
		}
	}
	return n
}

// SubtractArrayBitmapInto appends a − b to dst.
func SubtractArrayBitmapInto(dst, a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(b.keys) == 0 {
		return append(dst, a...)
	}
	j := 0
	for _, v := range a {
		key := v >> 6
		if j < len(b.keys) && b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
		}
		if j < len(b.keys) && b.keys[j] == key && b.words[j]&(1<<(v&63)) != 0 {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// SubtractArrayBitmapInPlace compacts a to a − b in place and returns
// the shortened slice, following the package's *InPlace contract.
func SubtractArrayBitmapInPlace(a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(b.keys) == 0 {
		return a
	}
	w, j := 0, 0
	for _, v := range a {
		key := v >> 6
		if j < len(b.keys) && b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
		}
		if j < len(b.keys) && b.keys[j] == key && b.words[j]&(1<<(v&63)) != 0 {
			continue
		}
		a[w] = v
		w++
	}
	return a[:w]
}

// IntersectBitmapsCount returns |a ∩ b| by walking the two key lists in
// one merge pass and popcounting the paired words.
func IntersectBitmapsCount(a, b *Bitmap) int {
	if a == nil || b == nil {
		return 0
	}
	i, j, n := 0, 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			n += bits.OnesCount64(a.words[i] & b.words[j])
			i++
			j++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// bounded (windowed) popcount kernels
//
// The miner's leaf fast path counts candidates inside an open interval:
// v > lo when hasLo, v < hi when hasHi (the symmetry-breaking window of
// plan restrictions). These count directly on the container words with
// partial masks at the interval's boundary containers.

// boundMasks returns, for the container key, the mask selecting only
// the in-window bits, and whether the container is entirely outside the
// window (mask 0 with outside=true short-circuits the caller's loop
// direction checks).
func boundMask(key uint32, lo, hi uint32, hasLo, hasHi bool) uint64 {
	m := ^uint64(0)
	if hasLo {
		if key < lo>>6 {
			return 0
		}
		if key == lo>>6 {
			m &= ^uint64(0) << ((lo & 63) + 1) // bits strictly above lo
		}
	}
	if hasHi {
		if key > hi>>6 {
			return 0
		}
		if key == hi>>6 {
			m &= (1 << (hi & 63)) - 1 // bits strictly below hi
		}
	}
	return m
}

// CountBounded returns the number of elements of b inside the open
// window: v > lo when hasLo and v < hi when hasHi.
func (b *Bitmap) CountBounded(lo, hi uint32, hasLo, hasHi bool) int {
	if b == nil {
		return 0
	}
	if !hasLo && !hasHi {
		return b.card
	}
	i := 0
	if hasLo {
		i = LowerBound(b.keys, lo>>6)
	}
	n := 0
	for ; i < len(b.keys); i++ {
		key := b.keys[i]
		if hasHi && key > hi>>6 {
			break
		}
		if m := boundMask(key, lo, hi, hasLo, hasHi); m != 0 {
			n += bits.OnesCount64(b.words[i] & m)
		}
	}
	return n
}

// IntersectBitmapsCountBounded returns |a ∩ b| restricted to the open
// window, popcounting masked word pairs.
func IntersectBitmapsCountBounded(a, b *Bitmap, lo, hi uint32, hasLo, hasHi bool) int {
	if a == nil || b == nil {
		return 0
	}
	if !hasLo && !hasHi {
		return IntersectBitmapsCount(a, b)
	}
	i, j := 0, 0
	if hasLo {
		i = LowerBound(a.keys, lo>>6)
		j = LowerBound(b.keys, lo>>6)
	}
	n := 0
	for i < len(a.keys) && j < len(b.keys) {
		ka, kb := a.keys[i], b.keys[j]
		switch {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			if hasHi && ka > hi>>6 {
				return n
			}
			if m := boundMask(ka, lo, hi, hasLo, hasHi); m != 0 {
				n += bits.OnesCount64(a.words[i] & b.words[j] & m)
			}
			i++
			j++
		}
	}
	return n
}

// IntersectBitmapBitsCountBounded returns |b ∩ bits| restricted to the
// open window, where bits is a dense full-universe bitset (a hub row).
func IntersectBitmapBitsCountBounded(b *Bitmap, bitset []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	if b == nil {
		return 0
	}
	i := 0
	if hasLo {
		i = LowerBound(b.keys, lo>>6)
	}
	n := 0
	for ; i < len(b.keys); i++ {
		key := b.keys[i]
		if hasHi && key > hi>>6 {
			break
		}
		if int(key) >= len(bitset) {
			break
		}
		if m := boundMask(key, lo, hi, hasLo, hasHi); m != 0 {
			n += bits.OnesCount64(b.words[i] & bitset[key] & m)
		}
	}
	return n
}

// CountBitsBounded returns the popcount of the dense full-universe
// bitset restricted to the open window.
func CountBitsBounded(bitset []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	ws := 0
	if hasLo {
		ws = int(lo >> 6)
	}
	we := len(bitset) - 1
	if hasHi && int(hi>>6) < we {
		we = int(hi >> 6)
	}
	n := 0
	for w := ws; w <= we && w < len(bitset); w++ {
		if m := boundMask(uint32(w), lo, hi, hasLo, hasHi); m != 0 {
			n += bits.OnesCount64(bitset[w] & m)
		}
	}
	return n
}

// IntersectBitsCountBounded returns |x ∩ y| restricted to the open
// window, where both are dense full-universe bitsets.
func IntersectBitsCountBounded(x, y []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	ws := 0
	if hasLo {
		ws = int(lo >> 6)
	}
	we := n - 1
	if hasHi && int(hi>>6) < we {
		we = int(hi >> 6)
	}
	c := 0
	for w := ws; w <= we && w < n; w++ {
		if m := boundMask(uint32(w), lo, hi, hasLo, hasHi); m != 0 {
			c += bits.OnesCount64(x[w] & y[w] & m)
		}
	}
	return c
}
