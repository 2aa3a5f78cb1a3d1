//go:build !purego

package tensor

//go:noescape
func addBlocksAVX512(out, a, b *float64, n int)

// addSame stores a[i] + b[i] into out[i] for every i (out may be a or b
// itself): eight lanes at a time on AVX-512, then addScalar for the last
// n%8. A lane's add is the scalar one, a first, so the bits — NaN payloads
// included — are addScalar's.
func addSame(out, a, b []float64) {
	j := 0
	if useAVX512 && len(a) >= 8 {
		j = len(a) &^ 7
		addBlocksAVX512(&out[0], &a[0], &b[0], j)
	}
	addScalar(out[j:], a[j:], b[j:])
}
