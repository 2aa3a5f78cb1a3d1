//go:build !amd64 || purego

package tensor

// axpyList accumulates the listed rows of b into o; see axpyListGeneric.
func axpyList(o, b []float64, nzs []nzEnt) { axpyListGeneric(o, b, nzs) }

// compactNonZeros lists the non-zeros of arow; see compactNonZerosScalar.
func compactNonZeros(nzs *[nzChunk]nzEnt, arow []float64, p0, n int) int {
	return compactNonZerosScalar(nzs, arow, p0, n)
}
