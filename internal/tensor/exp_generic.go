//go:build !amd64 || purego

package tensor

import "math"

// expSubRowSum stores exp(src[j]-mx) into dst[j] for every j (dst may alias
// src) and returns their sum, added in ascending j.
func expSubRowSum(dst, src []float64, mx float64) float64 { return expSubRowSumScalar(dst, src, mx) }

// divRow divides every element of o by s.
func divRow(o []float64, s float64) { divRowScalar(o, s) }

// rowMax returns the largest element of row that is not NaN, or -Inf.
func rowMax(row []float64) float64 { return rowMaxScalar(row, math.Inf(-1)) }
