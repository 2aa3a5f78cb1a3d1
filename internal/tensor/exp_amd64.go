//go:build !purego

package tensor

import "math"

//go:noescape
func expBlocksAVX512(dst, src *float64, n int, mx float64, sum *float64) int

//go:noescape
func expBlocksAVX2(dst, src *float64, n int, mx float64, sum *float64) int

//go:noescape
func maxBlocksAVX512(src *float64, n int) float64

//go:noescape
func maxBlocksAVX2(src *float64, n int) float64

//go:noescape
func divBlocksAVX512(o *float64, n int, s float64)

//go:noescape
func divBlocksAVX2(o *float64, n int, s float64)

// rowMax returns the largest element of row that is not NaN, or -Inf: the
// vector kernels over the leading blocks, then the scalar loop over the rest.
func rowMax(row []float64) float64 {
	n, j, mx := len(row), 0, math.Inf(-1)
	switch {
	case useAVX512 && n >= 8:
		mx, j = maxBlocksAVX512(&row[0], n), n&^7
	case useAVX2 && n >= 4:
		mx, j = maxBlocksAVX2(&row[0], n), n&^3
	}
	return rowMaxScalar(row[j:], mx)
}

// expSubRowSum stores exp(src[j]-mx) into dst[j] for every j (dst may alias
// src) and returns their sum, added in ascending j: eight lanes at a time on
// AVX-512, then four on AVX2, and expScalar for the last n%4 elements and for
// each block the vector kernels stop at. The exp contract is in exp.go.
func expSubRowSum(dst, src []float64, mx float64) float64 {
	n := len(src)
	dst = dst[:n]
	s := 0.0
	for j := 0; j < n; {
		if useAVX512 && n-j >= 8 {
			j += expBlocksAVX512(&dst[j], &src[j], n-j, mx, &s)
		}
		if useAVX2 && n-j >= 4 {
			j += expBlocksAVX2(&dst[j], &src[j], n-j, mx, &s)
		}
		// Fewer than four elements are left, or the next four hold a lane
		// outside the vector kernels' range.
		for end := min(j+4, n); j < end; j++ {
			e := expScalar(src[j] - mx)
			dst[j] = e
			s += e
		}
	}
	return s
}

// divRow divides every element of o by s, a lane-wise VDIVPD where the
// vector kernels reach: each quotient is the one correctly rounded result.
func divRow(o []float64, s float64) {
	n, j := len(o), 0
	if useAVX512 && n >= 8 {
		divBlocksAVX512(&o[0], n, s)
		j = n &^ 7
	}
	if useAVX2 && n-j >= 4 {
		divBlocksAVX2(&o[j], n-j, s)
		j = n &^ 3
	}
	divRowScalar(o[j:], s)
}
