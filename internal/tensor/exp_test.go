package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// expInputs returns the inputs the exp derivation test runs: the special
// cases and the edges of every branch of Go's exp_amd64.s, then n random
// values, a third each from the softmax range [-750, 0], from [-1100, 1100]
// and from every float64 bit pattern (subnormals, NaNs and infinities
// included).
func expInputs(n int) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
		expOverflow, math.Nextafter(expOverflow, 1000), math.Nextafter(expOverflow, 0),
		-745.1332191019411, -745.1332191019412, -708.3964185322641, -708.4, -709.1,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308,
	}
	// Around each rounding tie of k = x*log2e: the scale's exponent steps
	// there, through the subnormal and overflow thresholds.
	for k := -1080; k <= 1030; k++ {
		x := (float64(k) + 0.5) * math.Ln2
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, -750*r.Float64())
		case 1:
			xs = append(xs, 2200*r.Float64()-1100)
		default:
			xs = append(xs, math.Float64frombits(r.Uint64()))
		}
	}
	return xs
}

// logInputs is expInputs for log: zeros, subnormals, negatives, infinities,
// NaNs, the mantissas at sqrt(2)/2 where the assembly halves, then n random
// values, half of them positive normals across every exponent and half every
// float64 bit pattern.
func logInputs(n int) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 0.5, math.E, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 1e-30,
	}
	for e := -1074; e <= 1023; e += 7 {
		x := math.Ldexp(logHSqrt2, e)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			xs = append(xs, math.Float64frombits(r.Uint64()&^(1<<63)%0x7FF0000000000000))
		} else {
			xs = append(xs, math.Float64frombits(r.Uint64()))
		}
	}
	return xs
}

// TestLogPortMatchesMathLog holds logScalar to math.Log, which on amd64 is
// log_amd64.s: bit for bit on over a million inputs, specials included.
// Elsewhere math.Log is pure Go, which normalises subnormals first and which
// the compiler may fuse, so there is nothing to compare.
func TestLogPortMatchesMathLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Log is log_amd64.s only on amd64")
	}
	xs := logInputs(1 << 20)
	bad := 0
	for _, x := range xs {
		got, want := logScalar(x), math.Log(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			if bad++; bad <= 5 {
				t.Errorf("logScalar(%v = %#x) = %#x, math.Log %#x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d inputs differ", bad, len(xs))
	}
	t.Logf("%d inputs, 0 mismatches", len(xs))
}

// expRowRef is what every exp kernel must store: expScalar element by
// element.
func expRowRef(src []float64, mx float64) []float64 {
	want := make([]float64, len(src))
	for j, v := range src {
		want[j] = expScalar(v - mx)
	}
	return want
}

// checkExpKernel runs rowMax on src through every kernel this build has, then
// expSubRowSum, into a fresh row and in place, then divRow by the sum, and
// holds the maximum, the elements, the sum and the quotients to the scalar
// reference bit for bit.
func checkExpKernel(t testing.TB, src []float64, mx float64) {
	t.Helper()
	want := make([]float64, len(src))
	wantSum := expSubRowSumScalar(want, src, mx)
	wantMax := rowMaxScalar(src, math.Inf(-1))
	forEachKernel(func(kernel string) {
		// A zero maximum may come out as either zero: no exp tells them apart.
		if mx := rowMax(src); mx != wantMax {
			t.Fatalf("%s kernel, n=%d: rowMax %v, scalar %v", kernel, len(src), mx, wantMax)
		}
		got := make([]float64, len(src))
		for j := range got {
			got[j] = math.NaN() // the kernel must overwrite every element
		}
		sum := expSubRowSum(got, src, mx)
		inPlace := append([]float64(nil), src...)
		sumInPlace := expSubRowSum(inPlace, inPlace, mx)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(inPlace[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s kernel, n=%d mx=%v: element %d exp(%v) = %#x (in place %#x), expScalar %#x",
					kernel, len(src), mx, j, src[j]-mx, math.Float64bits(got[j]), math.Float64bits(inPlace[j]), math.Float64bits(want[j]))
			}
		}
		// NaN payloads are open (which NaN an add keeps depends on operand
		// order, which Go does not fix): a NaN sum need only be a NaN.
		if !sameBits(sum, wantSum) || !sameBits(sumInPlace, wantSum) {
			t.Fatalf("%s kernel, n=%d mx=%v: sum %#x (in place %#x), ascending scalar sum %#x",
				kernel, len(src), mx, math.Float64bits(sum), math.Float64bits(sumInPlace), math.Float64bits(wantSum))
		}
		divRow(got, sum)
		for j := range want {
			if q := want[j] / wantSum; !sameBits(got[j], q) {
				t.Fatalf("%s kernel, n=%d: element %d of divRow = %#x, want %#x", kernel, len(src), j, math.Float64bits(got[j]), math.Float64bits(q))
			}
		}
	})
}

// tame maps raw float64 bits into [-1024, 1024) in steps of 2^-10, where
// most lanes run the vector path and a few leave its range.
func tame(bits uint64) float64 { return float64(int64(bits)%(1<<20)) / 1024 }

// specialLanes are values that send a block to expScalar when they are
// among its lanes.
var specialLanes = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -800, 710, -745.2, -708.5}

// TestExpKernelBitIdentical holds every exp kernel to expScalar over row
// lengths 0 to 300 (every block tail of both vector widths): rows in the
// softmax range against their own maximum, rows with special lanes sprinkled
// in, rows against mx = -Inf and NaN, and all-special rows.
func TestExpKernelBitIdentical(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("kernels held to expScalar: %v", kernels)
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 300; n++ {
		src := make([]float64, n)
		for j := range src {
			src[j] = 40 * r.NormFloat64()
		}
		mx := math.Inf(-1)
		for _, v := range src {
			mx = max(mx, v)
		}
		checkExpKernel(t, src, mx)
		checkExpKernel(t, src, 2000*r.Float64()-1000)
		for j := range src {
			if r.Intn(16) == 0 {
				src[j] = specialLanes[r.Intn(len(specialLanes))]
			}
		}
		checkExpKernel(t, src, mx)
		checkExpKernel(t, src, math.Inf(-1))
		checkExpKernel(t, src, math.NaN())
		for j := range src {
			src[j] = specialLanes[r.Intn(len(specialLanes))]
		}
		checkExpKernel(t, src, 0)
	}
}

// FuzzExpKernel is the same differential test driven by the fuzzer: each 8
// bytes of row become one element, raw and tamed into the vector kernels'
// range, checked against mx and against the row's maximum. The committed
// corpus under testdata/fuzz holds the boundary cases: block tails, an
// all-special row, lanes with d < -745.
func FuzzExpKernel(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add(make([]byte, 8*13), math.Inf(-1))
	f.Fuzz(func(t *testing.T, row []byte, mx float64) {
		n := min(len(row)/8, 300)
		raw, tamed := make([]float64, n), make([]float64, n)
		for j := range raw {
			bits := binary.LittleEndian.Uint64(row[8*j:])
			raw[j], tamed[j] = math.Float64frombits(bits), tame(bits)
		}
		for _, src := range [][]float64{raw, tamed} {
			checkExpKernel(t, src, mx)
			rowMax := math.Inf(-1)
			for _, v := range src {
				if v > rowMax {
					rowMax = v
				}
			}
			checkExpKernel(t, src, rowMax)
		}
	})
}

// softmaxRef is SoftmaxInto written out with expScalar, one element at a
// time.
func softmaxRef(a *Tensor) *Tensor {
	m, n := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row, orow := a.data[i*n:(i+1)*n], out.data[i*n:(i+1)*n]
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			orow[j] = expScalar(v - mx)
			s += orow[j]
		}
		for j := range orow {
			orow[j] /= s
		}
	}
	return out
}

// TestSoftmaxAndCrossEntropyOnEveryKernel runs Softmax, CrossEntropy and its
// gradient through every exp kernel, on shapes with every block tail, rows
// with special values, and rows peaked enough that lanes underflow, and
// holds each to the element-by-element reference bit for bit; the loss and
// gradient from one softmax (CrossEntropySoftmaxInto, then
// CrossEntropyGradOfSoftmaxInto in place) to the two separate calls.
func TestSoftmaxAndCrossEntropyOnEveryKernel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	forEachKernel(func(kernel string) {
		for _, shape := range [][2]int{{1, 1}, {3, 7}, {8, 32}, {5, 13}, {4, 64}, {2, 301}, {16, 10}} {
			m, n := shape[0], shape[1]
			for _, scale := range []float64{0, 1, 30, 400} {
				logits := New(m, n)
				for i := range logits.data {
					logits.data[i] = scale * r.NormFloat64()
				}
				// Scale 0: every logit ±0, so the maximum is a zero of
				// either sign.
				if scale == 400 && n > 2 {
					logits.data[1] = math.Inf(-1)
					logits.data[n+2] = math.NaN()
				}
				targets := New(m, n)
				for i := 0; i < m; i++ {
					targets.data[i*n+r.Intn(n)] = 1
				}
				name := fmt.Sprintf("%s %dx%d scale %v", kernel, m, n, scale)

				want := softmaxRef(logits)
				got := Softmax(logits)
				for i, w := range want.data {
					if !sameBits(got.data[i], w) {
						t.Fatalf("%s: Softmax element %d = %#x, reference %#x", name, i, math.Float64bits(got.data[i]), math.Float64bits(w))
					}
				}
				wantLoss := 0.0
				for i, tv := range targets.data {
					if tv != 0 {
						wantLoss -= tv * logScalar(want.data[i]+1e-30)
					}
				}
				wantLoss /= float64(m)
				loss := CrossEntropy(logits, targets)
				if !sameBits(loss.data[0], wantLoss) {
					t.Fatalf("%s: CrossEntropy = %v, reference %v", name, loss.data[0], wantLoss)
				}
				grad := CrossEntropyGrad(logits, targets)
				for i, w := range want.data {
					if g := (w - targets.data[i]) * (1 / float64(m)); !sameBits(grad.data[i], g) {
						t.Fatalf("%s: CrossEntropyGrad element %d = %v, reference %v", name, i, grad.data[i], g)
					}
				}

				shared, p := New(), New(m, n)
				CrossEntropySoftmaxInto(shared, p, logits, targets)
				CrossEntropyGradOfSoftmaxInto(p, p, targets)
				if !sameBits(shared.data[0], loss.data[0]) {
					t.Fatalf("%s: shared-softmax loss %v, CrossEntropy %v", name, shared.data[0], loss.data[0])
				}
				for i := range p.data {
					if !sameBits(p.data[i], grad.data[i]) {
						t.Fatalf("%s: shared-softmax gradient element %d = %v, CrossEntropyGrad %v", name, i, p.data[i], grad.data[i])
					}
				}
			}
		}
	})
}

// TestExpAndLogTensors pins the scalar ports that Softmax and CrossEntropy
// run at the ends of their ranges: underflow, overflow, ±Inf, zero and
// negative inputs.
func TestExpAndLogTensors(t *testing.T) {
	for _, c := range []struct{ x, exp float64 }{
		{-800, 0}, {math.Inf(-1), 0}, {0, 1}, {1, math.E}, {800, math.Inf(1)}, {math.Inf(1), math.Inf(1)},
	} {
		if got := expScalar(c.x); math.Abs(got-c.exp) > 1e-15 && got != c.exp {
			t.Errorf("expScalar(%v) = %v, want %v", c.x, got, c.exp)
		}
	}
	if got := expScalar(700); math.IsInf(got, 0) || got < 1e304 {
		t.Errorf("expScalar(700) = %v, want finite ≈ 1.01e304", got)
	}
	for _, c := range []struct{ x, log float64 }{
		{1, 0}, {0, math.Inf(-1)}, {math.Inf(1), math.Inf(1)}, {math.E, 1},
	} {
		if got := logScalar(c.x); math.Abs(got-c.log) > 1e-15 && got != c.log {
			t.Errorf("logScalar(%v) = %v, want %v", c.x, got, c.log)
		}
	}
	for _, x := range []float64{-1, math.Inf(-1), math.NaN()} {
		if got := logScalar(x); !math.IsNaN(got) {
			t.Errorf("logScalar(%v) = %v, want NaN", x, got)
		}
	}
}

var benchExpSink float64

// BenchmarkExpRow prices exp(v - mx) over 32 768 softmax-range elements per
// element: math.Exp, the scalar port, and expSubRowSum (exps and their sum)
// on every kernel this build has.
func BenchmarkExpRow(b *testing.B) {
	const n = 32768
	r := rand.New(rand.NewSource(1))
	src, dst := make([]float64, n), make([]float64, n)
	for j := range src {
		src[j] = -20 * r.Float64()
	}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	}
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range src {
				dst[j] = math.Exp(v)
			}
		}
		perElem(b)
	})
	b.Run("expScalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range src {
				dst[j] = expScalar(v)
			}
		}
		perElem(b)
	})
	forEachKernel(func(kernel string) {
		b.Run("expSubRowSum/"+kernel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchExpSink += expSubRowSum(dst, src, 0)
			}
			perElem(b)
		})
	})
	benchExpSink = dst[0]
}

// BenchmarkSoftmax times SoftmaxInto at the loss shapes of pp4-compute
// (128x256), pp4-small (8x32) and the dp2x2 pair (4x512), on every kernel
// this build has.
func BenchmarkSoftmax(b *testing.B) {
	for _, s := range [][2]int{{128, 256}, {8, 32}, {4, 512}} {
		a := rnd(rand.New(rand.NewSource(1)), s[0], s[1])
		dst := New(s[0], s[1])
		forEachKernel(func(kernel string) {
			b.Run(fmt.Sprintf("%dx%d/%s", s[0], s[1], kernel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					SoftmaxInto(dst, a)
				}
			})
		})
	}
}
