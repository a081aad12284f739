package setops

import "testing"

// decodeFuzzSet turns fuzz bytes into a strictly increasing set. Each
// byte is a positive delta; the scale byte stretches deltas so the
// fuzzer reaches sparse spreads (large scale) and packed runs (scale 0)
// with equal ease.
func decodeFuzzSet(data []byte, scale byte) []uint32 {
	out := make([]uint32, 0, len(data))
	cur := uint64(0)
	for _, d := range data {
		cur += uint64(d)<<(scale&15) + 1
		if cur > 1<<32-1 {
			break
		}
		out = append(out, uint32(cur-1))
	}
	return out
}

// FuzzHybridSetOps differentially checks every kernel the miners
// dispatch to — merge, galloping, array×bitmap probes, dense-bitset
// probes and the bounded popcount kernels — against the merge oracle.
// The two scale bytes steer density: 0 packs values into runs (bitmap
// territory), 15 spreads them across the whole uint32 universe.
func FuzzHybridSetOps(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0), byte(0))                                 // empty × empty
	f.Add([]byte{5}, []byte{5}, byte(0), byte(0))                               // singleton overlap
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(0), byte(0)) // dense runs
	f.Add([]byte{1, 1, 1, 1}, []byte{255, 255, 255}, byte(0), byte(15))         // clustered × sparse
	f.Add([]byte{255, 255, 255, 255}, []byte{1}, byte(15), byte(15))            // full-universe spread
	f.Add([]byte{63, 1, 63, 1}, []byte{64, 64}, byte(0), byte(0))               // container boundaries
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, scaleA, scaleB byte) {
		if len(rawA) > 512 || len(rawB) > 512 {
			return
		}
		a := decodeFuzzSet(rawA, scaleA)
		b := decodeFuzzSet(rawB, scaleB)
		checkHybridPair(t, a, b)
		lo, hi := windowEdges(a, b)
		checkBoundedPair(t, a, b, lo, hi)
	})
}
