package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// specialValues are the inputs whose bits a kernel most easily gets wrong:
// NaNs with distinct payloads and signs (a signalling one among them), both
// zeros, both infinities, subnormals and the extremes.
var specialValues = []float64{
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002),
	math.Float64frombits(0x7FF0000000000003), math.NaN(),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// specialTensor returns an owned (rows, cols) tensor, or with off > 0 an
// owned-looking view starting off elements into a larger array, half of it
// drawn from specialValues and the rest normal.
func specialTensor(r *rand.Rand, off, rows, cols int) *Tensor {
	flat := make([]float64, off+rows*cols+2)
	for i := range flat {
		flat[i] = math.NaN() // a read outside the view poisons the result
	}
	t := &Tensor{shape: []int{rows, cols}, data: flat[off : off+rows*cols]}
	for i := range t.data {
		if r.Intn(2) == 0 {
			t.data[i] = specialValues[r.Intn(len(specialValues))]
		} else {
			t.data[i] = r.NormFloat64()
		}
	}
	return t
}

// sameBitsExact fails t at the first element where got and want differ in
// any bit, NaN payloads included.
func sameBitsExact(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(w))
		}
	}
}

// TestMulReLUMaskMatchesUnfused holds the ReLU backward kernel to MulInto
// against the materialised ReLUMask, bit for bit, in both operand orders,
// into fresh storage and in place over either operand, on NaN payloads, ±0,
// ±Inf and subnormals in both ct and h.
func TestMulReLUMaskMatchesUnfused(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	forEachKernel(func(kernel string) {
		for _, n := range []int{1, 7, 8, 33, 257} {
			ct, h := specialTensor(r, 1, n, 3), specialTensor(r, 2, n, 3)
			mask := ReLUMask(h)
			for _, maskLeft := range []bool{false, true} {
				want := New(n, 3)
				if maskLeft {
					MulInto(want, mask, ct)
				} else {
					MulInto(want, ct, mask)
				}
				what := fmt.Sprintf("%s kernel, %d rows, maskLeft %v", kernel, n, maskLeft)
				got := New(n, 3)
				MulReLUMaskInto(got, ct, h, maskLeft)
				sameBitsExact(t, what, got.data, want.data)
				for _, into := range []string{"ct", "h"} {
					c, hh := ct.Clone(), h.Clone()
					dst := c
					if into == "h" {
						dst = hh
					}
					MulReLUMaskInto(dst, c, hh, maskLeft)
					sameBitsExact(t, what+" in place over "+into, dst.data, want.data)
				}
			}
		}
	})
}

// TestAddIntoKernelMatchesScalar holds AddInto's same-shape path and
// AddSlice, the AVX-512 blocks where the CPU has them, to addScalar bit for
// bit: every length from 0 to 70 (every n%8 tail and n%32 pass), operands at
// odd offsets, NaNs with different payloads meeting in one add, and the
// result written fresh and in place over either operand.
func TestAddIntoKernelMatchesScalar(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("AddInto kernels held to addScalar: %v", kernels)
	r := rand.New(rand.NewSource(22))
	forEachKernel(func(kernel string) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 3; off++ {
				a, b := specialTensor(r, off, n, 1), specialTensor(r, 2-off, n, 1)
				want := make([]float64, n)
				addScalar(want, a.data, b.data)
				what := fmt.Sprintf("%s kernel, n=%d, offset %d", kernel, n, off)
				got := New(n, 1)
				AddInto(got, a, b)
				sameBitsExact(t, what, got.data, want)
				x, y := a.Clone(), b.Clone()
				AddInto(x, x, b)
				sameBitsExact(t, what+" in place over a", x.data, want)
				AddInto(y, a, y)
				sameBitsExact(t, what+" in place over b", y.data, want)
				z := a.Clone()
				AddSlice(z.data, z.data, b.data)
				sameBitsExact(t, what+" AddSlice in place over a", z.data, want)
			}
		}
	})
}

// reluEdges are the bit patterns on either side of positiveBits' unsigned
// compare: +0 (bits-1 wraps) and the smallest subnormal, the largest finite
// value, +Inf and the NaN just past it, -0, the smallest negative and the
// all-ones NaN.
var reluEdges = []uint64{0, 1, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF0000000000001,
	0x8000000000000000, 0x8000000000000001, 0xFFFFFFFFFFFFFFFF}

// reluRow returns n elements at offset off into a NaN-poisoned array: every
// third an edge of reluEdges, the rest specialTensor's mix.
func reluRow(r *rand.Rand, off, n int) []float64 {
	row := specialTensor(r, off, n, 1).data
	for i := 0; i < n; i += 3 {
		row[i] = math.Float64frombits(reluEdges[r.Intn(len(reluEdges))])
	}
	return row
}

// TestReLUKernelsMatchScalar holds the ReLU family's AVX-512 blocks, where
// the CPU has them, to the scalar loops bit for bit, NaN payloads included:
// relu (ReLUInto), reluMask (ReLUMaskInto) and mulReLUMask (MulReLUMaskInto)
// in both operand orders. Every length from 0 to 70 (every n%8 tail),
// operands at odd offsets, the edges of positiveBits' compare, and each
// result written fresh and in place over each operand it may alias.
func TestReLUKernelsMatchScalar(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("ReLU kernels held to their scalar loops: %v", kernels)
	r := rand.New(rand.NewSource(23))
	forEachKernel(func(kernel string) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 3; off++ {
				a, b := reluRow(r, off, n), reluRow(r, 2-off, n)
				what := fmt.Sprintf("%s kernel, n=%d, offset %d", kernel, n, off)
				want, got := make([]float64, n), make([]float64, n)
				// inPlace runs a kernel on copies of a and b and holds the
				// copy it returns, the one written over, to want.
				inPlace := func(name string, run func(x, y []float64) []float64) {
					t.Helper()
					x, y := append([]float64(nil), a...), append([]float64(nil), b...)
					sameBitsExact(t, what+" "+name+" in place", run(x, y), want)
				}

				reluScalar(want, a)
				relu(got, a)
				sameBitsExact(t, what+" relu", got, want)
				inPlace("relu", func(x, _ []float64) []float64 { relu(x, x); return x })

				reluMaskScalar(want, a)
				reluMask(got, a)
				sameBitsExact(t, what+" reluMask", got, want)
				inPlace("reluMask", func(x, _ []float64) []float64 { reluMask(x, x); return x })

				for _, maskLeft := range []bool{false, true} {
					name := fmt.Sprintf("mulReLUMask(maskLeft %v)", maskLeft)
					mulReLUMaskScalar(want, a, b, maskLeft)
					mulReLUMask(got, a, b, maskLeft)
					sameBitsExact(t, what+" "+name, got, want)
					inPlace(name+" over ct", func(x, y []float64) []float64 { mulReLUMask(x, x, y, maskLeft); return x })
					inPlace(name+" over h", func(x, y []float64) []float64 { mulReLUMask(y, x, y, maskLeft); return y })
				}
			}
		}
	})
}

// transposeTiles16 is the loop TransposeInto ran before its 8x8 blocks:
// 16x16 tiles, a scalar store per element down each tile's columns.
func transposeTiles16(dst, a []float64, m, n int) {
	const tile = 16
	for i0 := 0; i0 < m; i0 += tile {
		i1 := min(i0+tile, m)
		for j0 := 0; j0 < n; j0 += tile {
			j1 := min(j0+tile, n)
			for i := i0; i < i1; i++ {
				col := dst[j0*m+i:]
				for j, v := range a[i*n+j0 : i*n+j1] {
					col[j*m] = v
				}
			}
		}
	}
}

// TestTransposeBlocksMatchTiles holds the 8x8-block TransposeInto to the
// 16x16-tile loop it replaces, bit for bit, on shapes below, at and around a
// block and far from square, every destination element overwritten.
func TestTransposeBlocksMatchTiles(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	forEachKernel(func(kernel string) {
		for _, s := range [][2]int{{1, 1}, {7, 9}, {8, 8}, {9, 17}, {513, 3}, {512, 512}} {
			m, n := s[0], s[1]
			a := specialTensor(r, 1, m, n)
			want := make([]float64, m*n)
			transposeTiles16(want, a.data, m, n)
			got := New(n, m)
			for i := range got.data {
				got.data[i] = math.NaN()
			}
			TransposeInto(got, a)
			sameBitsExact(t, fmt.Sprintf("%s kernel, TransposeInto %dx%d", kernel, m, n), got.data, want)
		}
	})
}

// TestKernelsRefuseOverlappingDestination plants a destination that shares
// storage with an operand in every kernel that must not be given one. Before
// the check two of them returned wrong values in silence: MatMulInto(x, x, w)
// on a 4x4 x was off by up to 2.97, and TransposeInto(y, y) by 0.87. The
// index-local MulReLUMaskInto may write over ct or h itself, but not over a
// shifted view of either.
func TestKernelsRefuseOverlappingDestination(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	x, w, y := rnd(r, 4, 4), rnd(r, 4, 4), rnd(r, 4, 4)
	flat := rnd(r, 40)
	shifted := func(off int) *Tensor { return &Tensor{shape: []int{4, 4}, data: flat.data[off : off+16]} }
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"MatMulInto over a", func() { MatMulInto(x, x, w) }},
		{"MatMulInto over b", func() { MatMulInto(w, x, w) }},
		{"MatMulNTInto over a", func() { MatMulNTInto(x, x, w) }},
		{"MatMulNTInto over b, shifted", func() { MatMulNTInto(shifted(3), x, shifted(0)) }},
		{"TransposeInto over a", func() { TransposeInto(y, y) }},
		{"TransposeInto over a, shifted", func() { TransposeInto(shifted(1), shifted(0)) }},
		{"MulReLUMaskInto over ct, shifted", func() { MulReLUMaskInto(shifted(1), shifted(0), y, false) }},
		{"MulReLUMaskInto over h, shifted", func() { MulReLUMaskInto(shifted(8), y, shifted(0), true) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "destination overlaps an operand") {
					t.Errorf("want a refusal naming the overlap, got %q", msg)
				}
			}()
			c.run()
		})
	}
	// Disjoint views of one array are not an overlap.
	MatMulInto(shifted(16), shifted(0), w)
	TransposeInto(shifted(24), shifted(8))
	MulReLUMaskInto(y, y, x, false)
}

// TestBackwardKernelsAllocFree pins 0 allocs/op for the kernels a backward
// segment and Store.Accumulate run on every microbatch.
func TestBackwardKernelsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	ct, h, w := rnd(r, 8, 32), rnd(r, 8, 32), rnd(r, 32, 32)
	dst, dw, wt := New(8, 32), New(32, 32), New(32, 32)
	forEachKernel(func(kernel string) {
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"MulReLUMaskInto", func() { MulReLUMaskInto(dst, ct, h, false) }},
			{"AddInto", func() { AddInto(dw, dw, w) }},
			{"TransposeInto", func() { TransposeInto(wt, w) }},
		} {
			if n := testing.AllocsPerRun(50, c.run); n != 0 {
				t.Errorf("%s kernel: %s allocates %v times per call", kernel, c.name, n)
			}
		}
	})
}
