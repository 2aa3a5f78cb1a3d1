package tensor

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/obs"
)

// Elementwise kernels are specialized per operator (no closure dispatch in
// the hot loops) and come in two forms: pure (allocate a result) and
// destination-passing *Into (write into caller-owned storage, which may alias
// an operand). The interpreter's compiled programs and the runtime's gradient
// accumulation use the Into forms on storage they own.

// checkBinShapes panics unless a and b are elementwise-compatible (equal
// shapes or one scalar).
func checkBinShapes(name string, a, b *Tensor) {
	if !SameShape(a, b) && a.Rank() != 0 && b.Rank() != 0 {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
}

// checkDst panics unless dst has exactly the given shape and is writable
// (not a borrowed view of caller-owned storage).
func checkDst(name string, dst *Tensor, shape []int) {
	if !ShapeEq(dst.shape, shape) {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want %v", name, dst.shape, shape))
	}
	if dst.borrowed {
		panic("tensor: " + name + " destination is a borrowed view")
	}
}

// checkDst2 is checkDst for rank-2 destinations. Taking the dims as ints
// keeps the expected shape off the heap (a []int{m, n} literal escapes via
// the panic path), which matters in kernels called hundreds of times per
// step.
func checkDst2(name string, dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want %v", name, dst.shape, []int{m, n}))
	}
	if dst.borrowed {
		panic("tensor: " + name + " destination is a borrowed view")
	}
}

// overlaps reports whether x and y share any element of storage: an
// address-range test on their backing arrays, allocation-free (the address
// of an element is read through reflect, which a pointer enters without
// escaping anything new).
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	px, py := reflect.ValueOf(&x[0]).Pointer(), reflect.ValueOf(&y[0]).Pointer()
	return px < py+uintptr(8*len(y)) && py < px+uintptr(8*len(x))
}

// checkApart panics unless dst shares no storage with src: the kernels that
// read an operand after they have begun to write their destination.
func checkApart(name string, dst, src *Tensor) {
	if overlaps(dst.data, src.data) {
		panic("tensor: " + name + " destination overlaps an operand")
	}
}

// checkInPlace panics unless dst is src element for element or shares no
// storage with it: an index-local kernel may write over the operand it
// reads, but not over a shifted copy of it.
func checkInPlace(name string, dst, src *Tensor) {
	if overlaps(dst.data, src.data) && (&dst.data[0] != &src.data[0] || len(dst.data) != len(src.data)) {
		panic("tensor: " + name + " destination overlaps an operand at another offset")
	}
}

// binShape returns the broadcast result shape of a and b.
func binShape(a, b *Tensor) []int {
	if a.Rank() != 0 {
		return a.shape
	}
	return b.shape
}

// Add returns a + b elementwise. Shapes must match exactly, or one operand
// may be a scalar (rank 0), which broadcasts.
func Add(a, b *Tensor) *Tensor {
	checkBinShapes("Add", a, b)
	out := New(binShape(a, b)...)
	AddInto(out, a, b)
	return out
}

// AddInto stores a + b into dst (dst may alias a or b).
func AddInto(dst, a, b *Tensor) {
	checkBinShapes("AddInto", a, b)
	checkDst("AddInto", dst, binShape(a, b))
	switch {
	case SameShape(a, b):
		ad := a.data
		addSame(dst.data[:len(ad)], ad, b.data[:len(ad)])
	case b.Rank() == 0:
		y := b.data[0]
		out := dst.data[:len(a.data)]
		for i, x := range a.data {
			out[i] = x + y
		}
	default:
		x := a.data[0]
		out := dst.data[:len(b.data)]
		for i, y := range b.data {
			out[i] = x + y
		}
	}
}

// addScalar stores a[i] + b[i] into out[i], a the first operand of every
// add: the loop the vector form of addSame must equal bit for bit.
func addScalar(out, a, b []float64) {
	b, out = b[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = x + b[i]
	}
}

// Sub returns a - b elementwise with scalar broadcasting.
func Sub(a, b *Tensor) *Tensor {
	checkBinShapes("Sub", a, b)
	out := New(binShape(a, b)...)
	SubInto(out, a, b)
	return out
}

// SubInto stores a - b into dst (dst may alias a or b).
func SubInto(dst, a, b *Tensor) {
	checkBinShapes("SubInto", a, b)
	checkDst("SubInto", dst, binShape(a, b))
	switch {
	case SameShape(a, b):
		ad := a.data
		bd, out := b.data[:len(ad)], dst.data[:len(ad)]
		for i, x := range ad {
			out[i] = x - bd[i]
		}
	case b.Rank() == 0:
		y := b.data[0]
		out := dst.data[:len(a.data)]
		for i, x := range a.data {
			out[i] = x - y
		}
	default:
		x := a.data[0]
		out := dst.data[:len(b.data)]
		for i, y := range b.data {
			out[i] = x - y
		}
	}
}

// Mul returns a * b elementwise with scalar broadcasting.
func Mul(a, b *Tensor) *Tensor {
	checkBinShapes("Mul", a, b)
	out := New(binShape(a, b)...)
	MulInto(out, a, b)
	return out
}

// MulInto stores a * b into dst (dst may alias a or b).
func MulInto(dst, a, b *Tensor) {
	checkBinShapes("MulInto", a, b)
	checkDst("MulInto", dst, binShape(a, b))
	switch {
	case SameShape(a, b):
		ad := a.data
		bd, out := b.data[:len(ad)], dst.data[:len(ad)]
		for i, x := range ad {
			out[i] = x * bd[i]
		}
	case b.Rank() == 0:
		y := b.data[0]
		out := dst.data[:len(a.data)]
		for i, x := range a.data {
			out[i] = x * y
		}
	default:
		x := a.data[0]
		out := dst.data[:len(b.data)]
		for i, y := range b.data {
			out[i] = x * y
		}
	}
}

// Scale returns a * s.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	ScaleInto(out, a, s)
	return out
}

// ScaleInto stores a * s into dst (dst may alias a).
func ScaleInto(dst, a *Tensor, s float64) {
	checkDst("ScaleInto", dst, a.shape)
	out := dst.data[:len(a.data)]
	for i, x := range a.data {
		out[i] = x * s
	}
}

// Map applies f elementwise. Specialized kernels below avoid this closure
// dispatch on hot paths; Map remains for cold transcendental ops.
func Map(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// ReLU returns max(a, 0).
func ReLU(a *Tensor) *Tensor {
	out := New(a.shape...)
	ReLUInto(out, a)
	return out
}

// positiveBits reports x > 0 from x's IEEE bits without a floating-point
// compare: true for (0, +Inf], false for ±0, negatives and every NaN — bits-1
// wraps +0 to the top of the range and pushes NaNs past +Inf. The ReLU loops
// select on it with a conditional move, where `if x > 0` on half-positive
// data mispredicts every other element.
func positiveBits(bits uint64) bool {
	const posInf = 0x7FF0000000000000
	return bits-1 < posInf
}

// ReLUInto stores max(a, 0) into dst (dst may alias a).
func ReLUInto(dst, a *Tensor) {
	checkDst("ReLUInto", dst, a.shape)
	out := dst.data[:len(a.data)]
	for i, x := range a.data {
		bits := math.Float64bits(x)
		var r uint64
		if positiveBits(bits) {
			r = bits
		}
		out[i] = math.Float64frombits(r)
	}
}

// ReLUMask returns 1 where a > 0 else 0 (the derivative mask of ReLU).
func ReLUMask(a *Tensor) *Tensor {
	out := New(a.shape...)
	ReLUMaskInto(out, a)
	return out
}

// ReLUMaskInto stores the ReLU derivative mask of a into dst (dst may alias a).
func ReLUMaskInto(dst, a *Tensor) {
	checkDst("ReLUMaskInto", dst, a.shape)
	const one = 0x3FF0000000000000
	out := dst.data[:len(a.data)]
	for i, x := range a.data {
		var r uint64
		if positiveBits(math.Float64bits(x)) {
			r = one
		}
		out[i] = math.Float64frombits(r)
	}
}

// MulReLUMaskInto stores ct * ReLUMask(h) into dst — ReLUMask(h) * ct when
// maskLeft — in one pass and without the mask tensor: the ReLU backward
// product. Each element is the one multiply MulInto would round, by 1 or by
// 0, so a negative ct under a zero mask stays -0 and an infinite one becomes
// NaN. ct and h must have one shape; dst may be ct or h itself, but no other
// view of their storage.
func MulReLUMaskInto(dst, ct, h *Tensor, maskLeft bool) {
	if !SameShape(ct, h) {
		panic(fmt.Sprintf("tensor: MulReLUMaskInto shape mismatch %v vs %v", ct.shape, h.shape))
	}
	checkDst("MulReLUMaskInto", dst, ct.shape)
	checkInPlace("MulReLUMaskInto", dst, ct)
	checkInPlace("MulReLUMaskInto", dst, h)
	// The mask is selected as bits, a conditional move like ReLUMaskInto's:
	// selected as a float64 it compiles to a branch that half-positive h
	// mispredicts every other element.
	const one = 0x3FF0000000000000
	cd := ct.data
	hd, out := h.data[:len(cd)], dst.data[:len(cd)]
	if maskLeft {
		for i, c := range cd {
			var m uint64
			if positiveBits(math.Float64bits(hd[i])) {
				m = one
			}
			out[i] = math.Float64frombits(m) * c
		}
		return
	}
	for i, c := range cd {
		var m uint64
		if positiveBits(math.Float64bits(hd[i])) {
			m = one
		}
		out[i] = c * math.Float64frombits(m)
	}
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor { return Map(a, math.Tanh) }

// matMulShapes validates rank-2 operands and returns (m, k, n).
func matMulShapes(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dims differ: %v x %v", a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

// matMulRows computes rows [lo, hi) of dst = a @ b, zeroing the destination
// rows first so dst may hold scratch garbage. Each row of a is compacted to
// its non-zeros, which axpyList then accumulates in ascending p (the kernel
// contract is in matmul_kernel.go): bit for bit the scalar ikj loop with its
// `a[i][p] == 0` skip.
func matMulRows(dst, a, b []float64, k, n, lo, hi int) {
	if n == 0 {
		return
	}
	b = b[:k*n] // every list offset p*n, p < k, addresses a whole row of b
	var nzs [nzChunk]nzEnt
	nonZeros := 0
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		clear(orow)
		for p0 := 0; p0 < k; p0 += nzChunk {
			if nz := compactNonZeros(&nzs, arow[p0:], p0, n); nz > 0 {
				axpyList(orow, b, nzs[:nz])
				nonZeros += nz
			}
		}
	}
	obs.Add(cMatMulElems, int64((hi-lo)*k))
	obs.Add(cMatMulNonZeros, int64(nonZeros))
}

// matMulGrain returns the minimum row-block size worth shipping to a worker:
// roughly 256k flops per block — 10-20 µs of the vector kernels at their
// measured ~13 (AVX2) to ~20 (AVX-512) GFLOP/s dense, no more than the block
// duration the scalar kernel's 64k flops bought — so small matmuls stay on
// the calling goroutine.
func matMulGrain(k, n int) int {
	g := 131072 / (k*n + 1)
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes the matrix product of two rank-2 tensors (m,k)x(k,n)->(m,n),
// parallelized over row blocks on the shared worker pool for large operands.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matMulShapes(a, b)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto stores a @ b into dst. dst must not overlap a or b.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := matMulShapes(a, b)
	checkDst2("MatMulInto", dst, m, n)
	checkApart("MatMulInto", dst, a)
	checkApart("MatMulInto", dst, b)
	if m < 2*matMulGrain(k, n) {
		// Small operands run inline; returning before the closure below is
		// built keeps the single-block case allocation-free.
		matMulRows(dst.data, a.data, b.data, k, n, 0, m)
		return
	}
	parallelFor(m, matMulGrain(k, n), func(lo, hi int) {
		matMulRows(dst.data, a.data, b.data, k, n, lo, hi)
	})
}

// MatMulNTInto stores a @ bᵀ into dst with b given untransposed: a is (m,k),
// b is (n,k), dst is (m,n). The result is MatMulInto(dst, a, Transpose(b))
// bit for bit, under the kernel contract of matmul_kernel.go. An a of at most
// ntDotRows rows is multiplied against the rows of b where they lie
// (matMulNTDot); above that b is transposed into pooled scratch once and the
// vector kernel runs over it. dst must not overlap a or b.
func MatMulNTInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulNT wants rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims differ: %v x %vᵀ", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	checkDst2("MatMulNTInto", dst, m, n)
	checkApart("MatMulNTInto", dst, a)
	checkApart("MatMulNTInto", dst, b)
	if m <= ntDotRows {
		matMulNTDot(dst.data, a.data, b.data, m, k, n)
		return
	}
	bt := GetScratchShaped(k, n)
	TransposeInto(bt, b)
	MatMulInto(dst, a, bt)
	Recycle(bt)
}

// MatMulReLUInto stores relu(a @ b) into dst — the fused matmul+activation
// kernel the interpreter emits when the IR permits. dst must not overlap a
// or b.
func MatMulReLUInto(dst, a, b *Tensor) {
	m, k, n := matMulShapes(a, b)
	checkDst2("MatMulReLUInto", dst, m, n)
	checkApart("MatMulReLUInto", dst, a)
	checkApart("MatMulReLUInto", dst, b)
	if m < 2*matMulGrain(k, n) {
		matMulRows(dst.data, a.data, b.data, k, n, 0, m)
		reluSpan(dst.data, 0, m*n)
		return
	}
	parallelFor(m, matMulGrain(k, n), func(lo, hi int) {
		matMulRows(dst.data, a.data, b.data, k, n, lo, hi)
		reluSpan(dst.data, lo*n, hi*n)
	})
}

// reluSpan stores max(data[i], 0) over data[lo:hi] in place, as ReLUInto
// does: +0 for a NaN and for -0, selected on positiveBits.
func reluSpan(data []float64, lo, hi int) {
	span := data[lo:hi]
	for i, x := range span {
		bits := math.Float64bits(x)
		var r uint64
		if positiveBits(bits) {
			r = bits
		}
		span[i] = math.Float64frombits(r)
	}
}

// MatMulAddReLUInto stores relu(a @ b + c) into dst, fusing the projection,
// bias add, and activation in one pass over the output. c must either match
// the (m,n) result shape or be a scalar. dst must not overlap a, b, or c.
func MatMulAddReLUInto(dst, a, b, c *Tensor) {
	m, k, n := matMulShapes(a, b)
	checkDst2("MatMulAddReLUInto", dst, m, n)
	checkApart("MatMulAddReLUInto", dst, a)
	checkApart("MatMulAddReLUInto", dst, b)
	checkApart("MatMulAddReLUInto", dst, c)
	if c.Rank() != 0 && (len(c.shape) != 2 || c.shape[0] != m || c.shape[1] != n) {
		panic(fmt.Sprintf("tensor: MatMulAddReLUInto addend shape %v, want %v or scalar", c.shape, []int{m, n}))
	}
	if m < 2*matMulGrain(k, n) {
		matMulRows(dst.data, a.data, b.data, k, n, 0, m)
		addReluSpan(dst.data, c, 0, m*n)
		return
	}
	parallelFor(m, matMulGrain(k, n), func(lo, hi int) {
		matMulRows(dst.data, a.data, b.data, k, n, lo, hi)
		addReluSpan(dst.data, c, lo*n, hi*n)
	})
}

// addReluSpan stores relu(data+c) over data[lo:hi] in place, with c either
// matching data's full extent or a scalar; relu is ReLUInto's, as in
// reluSpan.
func addReluSpan(data []float64, c *Tensor, lo, hi int) {
	span := data[lo:hi]
	if c.Rank() == 0 {
		cv := c.data[0]
		for i, x := range span {
			bits := math.Float64bits(x + cv)
			var r uint64
			if positiveBits(bits) {
				r = bits
			}
			span[i] = math.Float64frombits(r)
		}
		return
	}
	cs := c.data[lo:hi]
	for i, x := range span {
		bits := math.Float64bits(x + cs[i])
		var r uint64
		if positiveBits(bits) {
			r = bits
		}
		span[i] = math.Float64frombits(r)
	}
}

// Transpose returns the rank-2 transpose of a.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose wants rank 2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	TransposeInto(out, a)
	return out
}

// cTransposeElems counts the elements TransposeInto moves: an exact account
// of which transposes a compiled program still materialises.
var cTransposeElems = obs.Counter("transpose/elems")

// TransposeInto stores the rank-2 transpose of a into dst. dst must not
// overlap a.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose wants rank 2, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	checkDst2("TransposeInto", dst, n, m)
	checkApart("TransposeInto", dst, a)
	obs.Add(cTransposeElems, int64(m*n))
	i0 := 0
	for ; i0+8 <= m; i0 += 8 {
		j0 := 0
		for ; j0+8 <= n; j0 += 8 {
			transposeBlock8(dst.data[j0*m+i0:], a.data[i0*n+j0:], m, n)
		}
		transposeSpan(dst.data, a.data, m, n, i0, i0+8, j0)
	}
	transposeSpan(dst.data, a.data, m, n, i0, m, 0)
}

// transposeBlock8 moves the 8x8 block at the head of a (row stride n) to the
// head of dst (row stride m): eight row segments are read once, and each of
// the eight dst rows is written as one contiguous run of eight, so the
// strided side is eight cache lines whatever the shape. BenchmarkTranspose
// ran it 1.4-2.2x faster than 16x16 tiles of scalar stores, 4x512 to
// 512x512.
func transposeBlock8(dst, a []float64, m, n int) {
	r0, r1, r2, r3 := a[:8], a[n:][:8], a[2*n:][:8], a[3*n:][:8]
	r4, r5, r6, r7 := a[4*n:][:8], a[5*n:][:8], a[6*n:][:8], a[7*n:][:8]
	for c := range 8 {
		d := dst[c*m:][:8]
		d[0], d[1], d[2], d[3] = r0[c], r1[c], r2[c], r3[c]
		d[4], d[5], d[6], d[7] = r4[c], r5[c], r6[c], r7[c]
	}
}

// transposeSpan moves columns [j0, n) of rows [i0, i1) of a, the edges the
// 8x8 blocks leave.
func transposeSpan(dst, a []float64, m, n, i0, i1, j0 int) {
	for i := i0; i < i1; i++ {
		for j, v := range a[i*n+j0 : (i+1)*n] {
			dst[(j0+j)*m+i] = v
		}
	}
}

// Reshape returns a view of a with a new shape of equal element count. The
// view shares a's backing storage (reshape is free on every microbatch
// boundary); Clone it when the result will be mutated.
func Reshape(a *Tensor, shape ...int) *Tensor {
	if NumElements(shape) != a.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", a.shape, shape))
	}
	// A view of a borrowed view borrows the same storage.
	return &Tensor{shape: cloneShape(shape), data: a.data, borrowed: a.borrowed}
}

// Sum reduces all elements to a scalar tensor.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return Scalar(s)
}

// SumAxis0 sums over the leading axis: (d0, d1, ...) -> (d1, ...).
func SumAxis0(a *Tensor) *Tensor {
	if a.Rank() == 0 {
		return a.Clone()
	}
	out := New(a.shape[1:]...)
	SumAxis0Into(out, a)
	return out
}

// SumAxis0Into sums a over the leading axis into dst, overwriting it. dst
// must not alias a.
func SumAxis0Into(dst, a *Tensor) {
	if a.Rank() == 0 {
		panic("tensor: SumAxis0Into wants rank >= 1")
	}
	rest := a.shape[1:]
	checkDst("SumAxis0Into", dst, rest)
	stride := NumElements(rest)
	clear(dst.data)
	for i := 0; i < a.shape[0]; i++ {
		base := i * stride
		for j := 0; j < stride; j++ {
			dst.data[j] += a.data[base+j]
		}
	}
}

// ViewRange0 returns rows [lo, hi) along axis 0 as a zero-copy borrowed view
// of a's storage. The view is marked borrowed: destination-passing kernels
// refuse to write through it and Recycle refuses to pool it, so handing a
// view to the runtime can never mutate or reclaim the caller's batch data.
// The caller must keep a alive and unmutated while views of it circulate.
func ViewRange0(a *Tensor, lo, hi int) *Tensor {
	if a.Rank() == 0 || lo < 0 || hi > a.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: ViewRange0 [%d,%d) invalid for shape %v", lo, hi, a.shape))
	}
	rest := a.shape[1:]
	stride := NumElements(rest)
	shape := make([]int, 0, len(a.shape))
	shape = append(append(shape, hi-lo), rest...)
	return &Tensor{shape: shape, data: a.data[lo*stride : hi*stride : hi*stride], borrowed: true}
}

// Stack0 concatenates tensors of identical shape along a new leading axis.
func Stack0(parts []*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: Stack0 of zero tensors")
	}
	for _, p := range parts[1:] {
		if !SameShape(p, parts[0]) {
			panic(fmt.Sprintf("tensor: Stack0 shape mismatch %v vs %v", p.shape, parts[0].shape))
		}
	}
	shape := append([]int{len(parts)}, parts[0].shape...)
	out := New(shape...)
	stride := parts[0].Size()
	for i, p := range parts {
		copy(out.data[i*stride:(i+1)*stride], p.data)
	}
	return out
}

// Softmax computes row-wise softmax of a rank-2 tensor.
func Softmax(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Softmax wants rank 2, got %v", a.shape))
	}
	out := New(a.shape...)
	SoftmaxInto(out, a)
	return out
}

// cSoftmaxRows counts the rows SoftmaxInto normalises: a compiled loss
// segment runs one softmax per microbatch, not one for the loss and another
// for its gradient.
var cSoftmaxRows = obs.Counter("softmax/rows")

// SoftmaxInto stores the row-wise softmax of a into dst (dst may alias a).
// A row's exps come from the exp kernel (exp.go); their sum is one ascending
// chain, and each is divided by it — that order is part of the bits.
func SoftmaxInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Softmax wants rank 2, got %v", a.shape))
	}
	checkDst("SoftmaxInto", dst, a.shape)
	m, n := a.shape[0], a.shape[1]
	obs.Add(cSoftmaxRows, int64(m))
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		orow := dst.data[i*n : (i+1)*n]
		divRow(orow, expSubRowSum(orow, row, rowMax(row)))
	}
}

// CrossEntropy computes mean(-sum(targets * log softmax(logits), axis=1)) for
// rank-2 logits and same-shape target distributions.
func CrossEntropy(logits, targets *Tensor) *Tensor {
	p := GetScratchShaped(logits.shape...)
	loss := New()
	CrossEntropySoftmaxInto(loss, p, logits, targets)
	Recycle(p)
	return loss
}

// CrossEntropySoftmaxInto stores CrossEntropy(logits, targets) into the
// scalar loss and softmax(logits) into p, which CrossEntropyGradOfSoftmaxInto
// then turns into the gradient: a loss and its gradient from one softmax.
// p may alias logits.
func CrossEntropySoftmaxInto(loss, p, logits, targets *Tensor) {
	if !SameShape(logits, targets) {
		panic(fmt.Sprintf("tensor: CrossEntropy shape mismatch %v vs %v", logits.shape, targets.shape))
	}
	checkDst("CrossEntropySoftmaxInto", loss, nil)
	SoftmaxInto(p, logits)
	m := logits.shape[0]
	l := 0.0
	for i, t := range targets.data {
		if t != 0 {
			l -= float64(t * logScalar(p.data[i]+1e-30))
		}
	}
	loss.data[0] = l / float64(m)
}

// CrossEntropyGrad returns d(CrossEntropy)/d(logits) = (softmax - targets)/m.
func CrossEntropyGrad(logits, targets *Tensor) *Tensor {
	out := New(logits.shape...)
	CrossEntropyGradInto(out, logits, targets)
	return out
}

// CrossEntropyGradInto stores d(CrossEntropy)/d(logits) into dst (dst may
// alias logits, but not targets).
func CrossEntropyGradInto(dst, logits, targets *Tensor) {
	if !SameShape(logits, targets) {
		panic(fmt.Sprintf("tensor: CrossEntropy shape mismatch %v vs %v", logits.shape, targets.shape))
	}
	checkDst("CrossEntropyGradInto", dst, logits.shape)
	SoftmaxInto(dst, logits)
	CrossEntropyGradOfSoftmaxInto(dst, dst, targets)
}

// CrossEntropyGradOfSoftmaxInto stores (p - targets)/m into dst, for p the
// row-wise softmax of (m, n) logits (dst may alias p, but not targets).
func CrossEntropyGradOfSoftmaxInto(dst, p, targets *Tensor) {
	if !SameShape(p, targets) {
		panic(fmt.Sprintf("tensor: CrossEntropy shape mismatch %v vs %v", p.shape, targets.shape))
	}
	checkDst("CrossEntropyGradOfSoftmaxInto", dst, p.shape)
	inv := 1 / float64(p.shape[0])
	pd, out := p.data[:len(targets.data)], dst.data[:len(targets.data)]
	for i, t := range targets.data {
		out[i] = (pd[i] - t) * inv
	}
}
