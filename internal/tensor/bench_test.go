package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul measures the matmul kernel: square
// sizes across the range the pipeline microbatches and calibration models
// span, then the (m, k, n) shapes the benchmark workloads issue — forward
// and dx (rows x width x width) and dW (width x rows x width) of pp4-compute,
// pp4-small and the dp2x2 pair — each with a dense a and with half of a's
// entries zero, about what ReLU leaves (TestMatMulOperandZeroFraction in
// internal/distrun measures 41% over a pp4-compute step). GFLOP/s counts the
// dense 2mkn either way, so the zero50 rows read as effective throughput. Run
// with -benchmem so allocation regressions in the kernel path are visible.
func BenchmarkMatMul(b *testing.B) {
	run := func(name string, m, k, n int, zeroFrac float64) {
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			x := rnd(r, m, k)
			for i := range x.data {
				if r.Float64() < zeroFrac {
					x.data[i] = 0
				}
			}
			y := rnd(r, k, n)
			dst := New(m, n)
			b.SetBytes(int64(8 * m * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y)
			}
			flops := 2 * float64(m) * float64(k) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	for _, size := range []int{64, 128, 256, 512} {
		run(fmt.Sprintf("n=%d", size), size, size, size, 0)
	}
	for _, s := range [][3]int{{128, 256, 256}, {256, 128, 256}, {8, 32, 32}, {4, 512, 512}, {512, 4, 512}} {
		name := fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2])
		run(name+"/dense", s[0], s[1], s[2], 0)
		run(name+"/zero50", s[0], s[1], s[2], 0.5)
	}
}

// BenchmarkMatMulAcc adds a product into an accumulator two ways at the dW
// shapes of the benchmark workloads (dp2x2, pp4-compute, pp4-small), dense
// and with half of a zero: "fused" is MatMulAccInto, "matmul+add" what it
// replaces in a compiled step — the product into pooled scratch, AddInto the
// accumulator, the product recycled.
func BenchmarkMatMulAcc(b *testing.B) {
	for _, s := range [][3]int{{512, 4, 512}, {256, 128, 256}, {32, 8, 32}} {
		m, k, n := s[0], s[1], s[2]
		for _, zero := range []struct {
			name string
			frac float64
		}{{"dense", 0}, {"zero50", 0.5}} {
			r := rand.New(rand.NewSource(1))
			x := rnd(r, m, k)
			for i := range x.data {
				if r.Float64() < zero.frac {
					x.data[i] = 0
				}
			}
			y, acc := rnd(r, k, n), rnd(r, m, n)
			name := fmt.Sprintf("%dx%dx%d/%s", m, k, n, zero.name)
			b.Run(name+"/fused", func(b *testing.B) {
				b.SetBytes(int64(8 * m * n))
				for i := 0; i < b.N; i++ {
					MatMulAccInto(acc, x, y)
				}
			})
			b.Run(name+"/matmul+add", func(b *testing.B) {
				b.SetBytes(int64(8 * m * n))
				for i := 0; i < b.N; i++ {
					prod := GetScratchShaped(m, n)
					MatMulInto(prod, x, y)
					AddInto(acc, acc, prod)
					Recycle(prod)
				}
			})
		}
	}
}

// BenchmarkMatMulNT is what fixes ntDotRows: a @ bᵀ through MatMulNTInto
// ("nt") against what it replaced, TransposeInto into a reused buffer and
// then MatMulInto ("transpose+matmul" — the form MatMulNTInto itself takes
// above ntDotRows, so the two read alike there), at the dx shape of each
// benchmark workload and at 16, 32 and 64 rows of width 512 around the
// crossover. Dense and half-zero a, as in BenchmarkMatMul.
func BenchmarkMatMulNT(b *testing.B) {
	for _, s := range [][3]int{{4, 512, 512}, {128, 256, 256}, {8, 32, 32}, {16, 512, 512}, {32, 512, 512}, {64, 512, 512}} {
		m, k, n := s[0], s[1], s[2]
		for _, zero := range []struct {
			name string
			frac float64
		}{{"dense", 0}, {"zero50", 0.5}} {
			r := rand.New(rand.NewSource(1))
			x := rnd(r, m, k)
			for i := range x.data {
				if r.Float64() < zero.frac {
					x.data[i] = 0
				}
			}
			w := rnd(r, n, k)
			dst, wt := New(m, n), New(k, n)
			name := fmt.Sprintf("%dx%dx%d/%s/", m, k, n, zero.name)
			b.Run(name+"nt", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulNTInto(dst, x, w)
				}
			})
			b.Run(name+"transpose+matmul", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					TransposeInto(wt, w)
					MatMulInto(dst, x, wt)
				}
			})
		}
	}
}

// BenchmarkElementwise measures the specialized elementwise loops, pure vs
// destination-passing, at 1 024 elements (a pp4-small gradient, which
// Store.Accumulate adds), 32 768 (a pp4-compute activation) and 65 536.
func BenchmarkElementwise(b *testing.B) {
	for _, n := range []int{1024, 32768, 1 << 16} {
		r := rand.New(rand.NewSource(1))
		x := rnd(r, n)
		y := rnd(r, n)
		dst := New(n)
		b.Run(fmt.Sprintf("AddPure/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Add(x, y)
			}
		})
		b.Run(fmt.Sprintf("AddInto/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(24 * n))
			for i := 0; i < b.N; i++ {
				AddInto(dst, x, y)
			}
		})
	}
}

// BenchmarkReLU measures the ReLU loops on half-negative data, where a
// compare-and-branch per element mispredicts half the time, on every kernel:
// ReLUInto and ReLUMaskInto.
func BenchmarkReLU(b *testing.B) {
	const n = 128 * 256
	x := rnd(rand.New(rand.NewSource(1)), n)
	dst := New(n)
	forEachKernel(func(kernel string) {
		for _, k := range []struct {
			name string
			into func(dst, a *Tensor)
		}{
			{"ReLUInto", ReLUInto},
			{"ReLUMaskInto", ReLUMaskInto},
		} {
			b.Run(k.name+"/"+kernel, func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					k.into(dst, x)
				}
			})
		}
	})
}

// BenchmarkReLUBackward is the ReLU backward of a pp4-compute activation on
// half-negative h: MulReLUMaskInto in one pass on every kernel, against
// ReLUMaskInto into a reused mask and then MulInto, the two passes it
// replaces.
func BenchmarkReLUBackward(b *testing.B) {
	const n = 128 * 256
	r := rand.New(rand.NewSource(1))
	ct, h := rnd(r, n), rnd(r, n)
	dst, mask := New(n), New(n)
	forEachKernel(func(kernel string) {
		b.Run("fused/"+kernel, func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				MulReLUMaskInto(dst, ct, h, false)
			}
		})
	})
	b.Run("mask+mul", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			ReLUMaskInto(mask, h)
			MulInto(dst, ct, mask)
		}
	})
}

// BenchmarkCompact measures the compaction of one nzChunk-element chunk of a
// row of a into its non-zero list on every kernel, dense and with half of
// the elements zero at random, about what ReLU leaves: the scalar loop's
// count is a conditional move, the AVX-512 one compresses eight lanes at
// once.
func BenchmarkCompact(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, zero := range []int{0, 50} {
		row := make([]float64, nzChunk)
		for i := range row {
			if r.Intn(100) >= zero {
				row[i] = r.NormFloat64()
			}
		}
		var nzs [nzChunk]nzEnt
		forEachKernel(func(kernel string) {
			b.Run(fmt.Sprintf("zero%d/%s", zero, kernel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					compactNonZeros(&nzs, row, i&7, 256)
				}
			})
		})
	}
}

// BenchmarkNormal measures the draw of pp4-compute's 1024x256 input batch,
// RNG.Normal, on every kernel; ns/op over 262144 elements.
func BenchmarkNormal(b *testing.B) {
	forEachKernel(func(kernel string) {
		b.Run(kernel, func(b *testing.B) {
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				r.Normal(1, 1024, 256)
			}
		})
	})
}

// BenchmarkTranspose measures TransposeInto on the activation and weight
// shapes the backward pass transposes: x for each dW every microbatch, and
// each weight once a step where the prologue hoists it, every microbatch
// where it does not.
func BenchmarkTranspose(b *testing.B) {
	for _, s := range [][2]int{{128, 256}, {256, 256}, {4, 512}, {512, 512}} {
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			x := rnd(rand.New(rand.NewSource(1)), s[0], s[1])
			dst := New(s[1], s[0])
			b.SetBytes(int64(8 * s[0] * s[1]))
			for i := 0; i < b.N; i++ {
				TransposeInto(dst, x)
			}
		})
	}
}
