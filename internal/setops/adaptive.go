package setops

// Adaptive-dispatch kernels for the miners' hot path. The merge kernels
// in setops.go stream both inputs at one element per cycle — exactly what
// the IU hardware does — but software is free to exploit size skew and
// stored rows. The three families trade the same work differently:
//
//   - merge (setops.go): one pass over both inputs, O(|a|+|b|). The
//     baseline, and the best choice when the inputs are of similar size.
//   - galloping: exponential probes through the larger input,
//     O(|small| · log |large|). Wins when one side is ≥
//     GallopSkewThreshold× the other.
//   - bits: probes a precomputed dense membership bitset — one word load
//     per element of the list input, O(|list|), independent of the
//     bitset owner's degree. Wins whenever a bitset exists, i.e. for the
//     hub vertices of graph.HybridAdj's dense tier, whose neighbor lists
//     are long enough that n/8 bytes of bitset pay for themselves.
//
// All Into/InPlace variants follow the package's aliasing contract: Into
// appends to a caller-owned dst that must not alias either input; InPlace
// rewrites its first argument's prefix (output length ≤ input length, so
// the compaction is safe) and returns the shortened slice.

// GallopSkewThreshold is the size ratio beyond which galloping beats the
// linear merge (a conventional cutoff; the exact value is not critical).
// It is exported so adaptive dispatchers above this package can predict
// which kernel the *Galloping entry points will select.
const GallopSkewThreshold = 16

// gallopSearch returns the first index i ≥ lo with s[i] >= v, probing
// exponentially from lo before binary-searching the bracketed range.
func gallopSearch(s []uint32, lo int, v uint32) int {
	if lo >= len(s) || s[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(s) && s[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectGallopingInto appends a ∩ b to dst, galloping through the
// larger input when the size skew warrants it and falling back to the
// linear merge otherwise, and returns the extended slice.
func IntersectGallopingInto(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) < GallopSkewThreshold*len(a) {
		return IntersectInto(dst, a, b)
	}
	j := 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			dst = append(dst, v)
			j++
		}
	}
	return dst
}

// SubtractGallopingInto appends a − b to dst, galloping through b when it
// is much larger than a, and returns the extended slice.
func SubtractGallopingInto(dst, a, b []uint32) []uint32 {
	if len(a) == 0 {
		return dst
	}
	if len(b) < GallopSkewThreshold*len(a) {
		return SubtractInto(dst, a, b)
	}
	j := 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j < len(b) && b[j] == v {
			j++
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// IntersectCountGalloping returns |a ∩ b| with the skew-adaptive kernel,
// without materializing the result.
func IntersectCountGalloping(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) < GallopSkewThreshold*len(a) {
		return IntersectCount(a, b)
	}
	j, n := 0, 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			n++
			j++
		}
	}
	return n
}

// SubtractInPlace compacts a to a − b in place and returns the shortened
// slice, galloping through b when the skew warrants it. a's tail beyond
// the returned length is left in an unspecified state.
func SubtractInPlace(a, b []uint32) []uint32 {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	w, j := 0, 0
	gallop := len(b) >= GallopSkewThreshold*len(a)
	for _, v := range a {
		if gallop {
			j = gallopSearch(b, j, v)
		} else {
			for j < len(b) && b[j] < v {
				j++
			}
		}
		if j < len(b) && b[j] == v {
			j++
			continue
		}
		a[w] = v
		w++
	}
	return a[:w]
}

// BitsContain reports membership of v in a dense bitset indexed by value.
// Out-of-range values are absent.
func BitsContain(bits []uint64, v uint32) bool {
	w := int(v >> 6)
	return w < len(bits) && bits[w]&(1<<(v&63)) != 0
}

// IntersectBitsInto appends to dst the elements of a present in the dense
// bitset and returns the extended slice: a ∩ bits in O(|a|). The bitset
// must cover every value in a (the *Bits kernels are built per graph, so
// rows span the whole vertex universe).
func IntersectBitsInto(dst, a []uint32, bits []uint64) []uint32 {
	for _, v := range a {
		if bits[v>>6]&(1<<(v&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// SubtractBitsInto appends to dst the elements of a absent from the dense
// bitset and returns the extended slice: a − bits in O(|a|).
func SubtractBitsInto(dst, a []uint32, bits []uint64) []uint32 {
	for _, v := range a {
		if bits[v>>6]&(1<<(v&63)) == 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// SubtractBitsInPlace compacts a to a − bits in place and returns the
// shortened slice.
func SubtractBitsInPlace(a []uint32, bits []uint64) []uint32 {
	w := 0
	for _, v := range a {
		if bits[v>>6]&(1<<(v&63)) == 0 {
			a[w] = v
			w++
		}
	}
	return a[:w]
}

// IntersectCountBits returns |a ∩ bits| without materializing the result.
func IntersectCountBits(a []uint32, bits []uint64) int {
	n := 0
	for _, v := range a {
		if bits[v>>6]&(1<<(v&63)) != 0 {
			n++
		}
	}
	return n
}
