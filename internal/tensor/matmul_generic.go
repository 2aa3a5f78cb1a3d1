//go:build !amd64 || purego

package tensor

// axpyList accumulates the listed rows of b into o, or with zero set stores
// their chain from +0 there; see axpyListGeneric.
func axpyList(o, b []float64, nzs []nzEnt, zero bool) { axpyListGeneric(o, b, nzs, zero) }

// compactNonZeros lists the non-zeros of arow; see compactNonZerosScalar.
func compactNonZeros(nzs *[nzChunk]nzEnt, arow []float64, p0, n int) int {
	return compactNonZerosScalar(nzs, arow, p0, n)
}

// matMulAccTiles is the register form of matMulAccRows, which only the
// AVX-512 kernel has.
func matMulAccTiles(acc, a, b []float64, m, k, n int, nzs *[nzChunk]nzEnt) (nonZeros int, ok bool) {
	return 0, false
}
