package tensor

import "math"

// Constants of Go's log_amd64.s (FreeBSD's e_log.c).
const (
	logHSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
	logLn2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	logLn2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	logL1     = 6.666666666666735130e-01   // 0x3FE5555555555593
	logL2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
	logL3     = 2.857142874366239149e-01   // 0x3FD2492494229359
	logL4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	logL5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	logL6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	logL7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
)

// logScalar returns the natural logarithm of x: Go's amd64 math.Log bit for
// bit, a port of log_amd64.s, which has no FMA path. Like that assembly it
// splits x into mantissa and exponent with masks, so a subnormal x is not
// normalised first, and it doubles a mantissa at or below sqrt(2)/2. Every
// product is converted to float64 before it is added, so no compiler may
// fuse the two (the pure-Go math.Log other GOARCHes run is fused on some).
func logScalar(x float64) float64 {
	const posInf, negInf = 0x7FF0000000000000, 0xFFF0000000000000
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) == 0: // ±0
		return math.Float64frombits(negInf)
	case int64(bits) < 0: // negative, -Inf and NaNs with the sign bit
		return math.Float64frombits(0x7FF8000000000001)
	case bits >= posInf: // +Inf and NaN: x itself
		return x
	}
	f1bits := bits&(1<<52-1) | 0x3FE0000000000000 // f1 in [0.5, 1)
	k := float64(int64(bits>>52&0x7FF) - 0x3FE)
	// The assembly's CMPSD/ANDPD: c = 1 where f1 <= sqrt(2)/2 (a positive
	// float's bits order as its value), then k -= c and f1 *= 1+c. Selected
	// without a branch, which would mispredict on two inputs in five.
	var c uint64
	if f1bits <= math.Float64bits(logHSqrt2) {
		c = 1
	}
	k = k - float64(c)
	f1 := float64(math.Float64frombits(f1bits) * (1 + float64(c)))
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(logL7*s4) + logL5
	t1 = float64(t1*s4) + logL3
	t1 = float64(t1*s4) + logL1
	t1 = float64(s2 * t1)
	t2 := float64(logL6*s4) + logL4
	t2 = float64(t2*s4) + logL2
	t2 = float64(s4 * t2)
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*logLn2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*logLn2Lo))) - f)
}
