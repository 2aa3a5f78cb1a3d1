package tensor

import "math"

// The exp kernel. tensor computes exp itself instead of calling math.Exp,
// whose amd64 assembly takes a fused multiply-add path when the CPU has FMA:
// its bits, and every softmax and loss built on them, would then depend on
// the CPU. expScalar is a port of the other path of Go's exp_amd64.s — the
// one without FMA — and is the reference; expSubRowSum runs it over a row,
// and sums the row, through one of three kernels chosen once at init, next
// to the matmul ones (matmul_kernel.go):
//
//   - expBlocksAVX512 (Go assembly, amd64 with AVX-512F): eight lanes a block;
//   - expBlocksAVX2 (Go assembly, amd64 with AVX2): four lanes a block, and
//     the 4-wide remainder of a row the 512-bit kernel leaves;
//   - expScalar (pure Go): every other GOARCH, amd64 without AVX2, the purego
//     build tag, the last n%4 elements of a row, and every block with a lane
//     outside the normal range.
//
// All three are the same function bit for bit, because all keep the exp
// contract:
//
//   - lane-wise only: a lane is one element, and nothing is reduced across
//     lanes — the row sum is one scalar chain in ascending element order,
//     whichever kernel computed the element;
//   - each lane runs expScalar's operations in expScalar's order — d = v-mx,
//     k = round-to-nearest-even(d*log2(e)), the two-part reduction by k*ln2,
//     the scaled Taylor polynomial, four squarings, then a multiply by 2^k
//     built from k's bits — one rounding per multiply and one per add;
//   - never fuse a multiply into an add: no FMA instruction, no math.FMA, and
//     an explicit float64 conversion of each product in Go so the compiler
//     may not fuse either (an arch_test.go row holds the non-test Go and the
//     assembly files under internal/ to this);
//   - a block with any lane whose k leaves [-1022, 1023] — the scale 2^k
//     would not be a normal number — goes to expScalar whole. That one test
//     catches every special case: d NaN or ±Inf (the conversion of k yields
//     the integer indefinite, -2^31), d above about 709.44 (k >= 1024: +Inf,
//     which covers d > 709.78) and d below about -708.74 (k < -1022: a
//     subnormal result or 0).
//
// SoftmaxInto also takes the row maximum (maxBlocksAVX512/AVX2, NaNs skipped
// as by rowMaxScalar) and the quotients (divBlocksAVX512/AVX2) from
// exp_amd64.s: a maximum and a correctly rounded quotient have one answer
// however they are vectorised (up to the sign of a zero maximum, which no
// exp(v - mx) tells apart).
//
// TestExpPortMatchesGoNoFMA derives expScalar from Go's assembly, and
// FuzzExpKernel holds the vector kernels to expScalar.

// Constants of Go's exp_amd64.s, which takes them from Naoki Shibata's SLEEF
// ("Efficient evaluation methods of elementary functions suitable for SIMD
// computation", ISC'10).
const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln(2)
	expLn2U     = 0.69314718055966295651160180568695068359375 // upper half of ln(2)
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
	expC2       = 0.5
	expC3       = 1.6666666666666666667e-1
	expC4       = 4.1666666666666666667e-2
	expC5       = 8.3333333333333333333e-3
	expC6       = 1.3888888888888888889e-3
	expC7       = 1.9841269841269841270e-4
	expC8       = 2.4801587301587301587e-5
)

// expScalar returns e**x: Go's amd64 math.Exp on a CPU without FMA, bit for
// bit, special cases included. Every product is converted to float64 before
// it is added, so no compiler may fuse the two.
func expScalar(x float64) float64 {
	const posInf, negInf = 0x7FF0000000000000, 0xFFF0000000000000
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= posInf: // NaN or ±Inf
		if bits == negInf {
			return 0
		}
		return x
	case x > expOverflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even; below the int32 range (x*log2e is
	// -Inf for the most negative x) it yields -2^31. Either way a biased
	// exponent below -52 returns 0 without using the polynomial.
	kf := math.RoundToEven(float64(expLog2e * x))
	if kf < -1023-52 {
		return 0
	}
	e := int64(kf) + 1023 // biased exponent of the scale 2^k
	r := x - float64(expLn2U*kf)
	r = r - float64(expLn2L*kf)
	r = float64(r * 0.0625)
	p := float64(expC8*r) + expC7
	p = float64(p*r) + expC6
	p = float64(p*r) + expC5
	p = float64(p*r) + expC4
	p = float64(p*r) + expC3
	p = float64(p*r) + expC2
	p = float64(p*r) + 1
	r = float64(r * p)
	r = float64(r * (2 + r))
	r = float64(r * (2 + r))
	r = float64(r * (2 + r))
	r = float64(r * (2 + r))
	r = r + 1
	switch {
	case e <= 0: // subnormal result: two steps, 2^(k+1022) then 2^-1022
		r = float64(r * math.Float64frombits(uint64(e+1022)<<52))
		return float64(r * math.Float64frombits(1<<52))
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(e)<<52))
}

// rowMaxScalar returns the largest of mx and the elements of row, NaNs
// skipped.
func rowMaxScalar(row []float64, mx float64) float64 {
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// expSubRowSumScalar stores exp(src[j]-mx) into dst[j] for every j with
// expScalar (dst may alias src) and returns their sum, added in ascending j.
func expSubRowSumScalar(dst, src []float64, mx float64) float64 {
	dst = dst[:len(src)]
	s := 0.0
	for j, v := range src {
		e := expScalar(v - mx)
		dst[j] = e
		s += e
	}
	return s
}

// divRowScalar divides every element of o by s.
func divRowScalar(o []float64, s float64) {
	for j := range o {
		o[j] /= s
	}
}
