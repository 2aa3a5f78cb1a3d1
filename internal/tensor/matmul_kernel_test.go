package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the reference the kernels are held to: the scalar ikj loop
// with its zero skip, every product rounded before it is added.
func naiveMatMul(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		o := dst[i*n : (i+1)*n]
		clear(o)
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := range o {
				o[j] = o[j] + float64(av*b[p*n+j])
			}
		}
	}
}

// Bits of kernelCase.flags.
const (
	caseSpecials = 1 << iota // -0 and subnormals in a; ±Inf, NaN in b, opposite zero and non-zero a
	caseViews                // operands are borrowed views at odd element offsets
	caseZeroRows             // every other row of a is all zero
)

// kernelCase describes one differential input; the fuzz target's arguments
// map onto it one to one.
type kernelCase struct {
	m, k, n int
	seed    int64
	zeroPct int // share of a's entries that are zero
	flags   int
}

func (c kernelCase) String() string {
	return fmt.Sprintf("m=%d k=%d n=%d seed=%d zero=%d%% flags=%b", c.m, c.k, c.n, c.seed, c.zeroPct, c.flags)
}

// operand returns a rows x cols tensor with fill's values: freshly owned, or
// (caseViews) a borrowed view starting off elements into a larger buffer, so
// that its rows sit at addresses no vector load would call aligned.
func (c kernelCase) operand(rows, cols, off int, fill func(i int) float64) *Tensor {
	if c.flags&caseViews == 0 {
		t := New(rows, cols)
		for i := range t.data {
			t.data[i] = fill(i)
		}
		return t
	}
	flat := New(off + rows*cols + 3)
	for i := range flat.data {
		flat.data[i] = math.NaN() // a read outside the view poisons the product
	}
	v := Reshape(ViewRange0(flat, off, off+rows*cols), rows, cols)
	for i := range v.data {
		v.data[i] = fill(i)
	}
	return v
}

// build materialises the operands of c.
func (c kernelCase) build() (a, b *Tensor) {
	r := rand.New(rand.NewSource(c.seed))
	special := c.flags&caseSpecials != 0
	a = c.operand(c.m, c.k, 1, func(i int) float64 {
		if c.flags&caseZeroRows != 0 && c.k > 0 && (i/c.k)%2 == 0 {
			return 0
		}
		if r.Intn(100) < c.zeroPct {
			if special && r.Intn(2) == 0 {
				return math.Copysign(0, -1)
			}
			return 0
		}
		if special && r.Intn(16) == 0 {
			return 5e-324 * float64(1+r.Intn(1000))
		}
		return r.NormFloat64()
	})
	b = c.operand(c.k, c.n, 3, func(int) float64 {
		if special {
			switch r.Intn(24) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			case 3:
				return 1e-310
			}
		}
		return r.NormFloat64()
	})
	return a, b
}

// sameBits compares two results bit for bit. Every NaN is one value here:
// which payload survives when two NaNs meet depends on operand order inside
// an instruction, which the Go compiler does not pin down for the reference.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// checkKernelCase runs c through every kernel this build has and compares
// each against naiveMatMul — MatMulInto into a NaN-filled destination, which
// the zero-start kernels must never read — then MatMulNTInto on the
// untransposed b — (n, k), built like the other operands, so a borrowed view
// when c says so — against that MatMulInto(a, Transpose(bn)) result, then
// MatMulAccInto (checkAccCase).
func checkKernelCase(t testing.TB, c kernelCase) {
	t.Helper()
	a, b := c.build()
	bt := Transpose(b)
	bn := c.operand(c.n, c.k, 5, func(i int) float64 { return bt.data[i] })
	want := make([]float64, c.m*c.n)
	naiveMatMul(want, a.data, b.data, c.m, c.k, c.n)
	checkAccCase(t, c, a, b)
	forEachKernel(func(kernel string) {
		for _, leg := range []struct {
			name string
			run  func(dst *Tensor)
		}{
			{"MatMulInto", func(dst *Tensor) { MatMulInto(dst, a, b) }},
			{"MatMulNTInto", func(dst *Tensor) { MatMulNTInto(dst, a, bn) }},
		} {
			dst := New(c.m, c.n)
			for i := range dst.data {
				dst.data[i] = math.NaN() // the kernel must overwrite every element
			}
			leg.run(dst)
			for i, w := range want {
				if !sameBits(dst.data[i], w) {
					t.Fatalf("%s kernel, %s, %v: element %d = %x (%v), reference %x (%v)",
						kernel, leg.name, c, i, math.Float64bits(dst.data[i]), dst.data[i], math.Float64bits(w), w)
				}
			}
		}
	})
}

// accFor returns an accumulator for the (m, n) product of c: at an odd
// offset into a NaN-poisoned array, half of it specialValues (NaN payloads,
// ±0, ±Inf, subnormals), and all -0 in every row of a that caseZeroRows
// empties.
func accFor(c kernelCase) *Tensor {
	acc := specialTensor(rand.New(rand.NewSource(c.seed)), 1+int(c.seed&1), c.m, c.n)
	if c.flags&caseZeroRows != 0 {
		for i := 0; i < c.m; i += 2 {
			for j := range acc.data[i*c.n : (i+1)*c.n] {
				acc.data[i*c.n+j] = math.Copysign(0, -1)
			}
		}
	}
	return acc
}

// checkAccCase holds MatMulAccInto on c's operands to AddInto(acc, acc,
// MatMul(a, b)) under every kernel, every bit equal, NaN payloads included:
// the product's chains are the same kernel's on both sides, and acc is the
// first operand of the add on both, so where acc holds a NaN and the
// product another, acc's payload is the one kept.
func checkAccCase(t testing.TB, c kernelCase, a, b *Tensor) {
	t.Helper()
	forEachKernel(func(kernel string) {
		want, got := accFor(c), accFor(c)
		AddInto(want, want, MatMul(a, b))
		MatMulAccInto(got, a, b)
		for i, w := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(w) {
				t.Fatalf("%s kernel, MatMulAccInto, %v: element %d = %#x, AddInto(acc, acc, MatMul) %#x",
					kernel, c, i, math.Float64bits(got.data[i]), math.Float64bits(w))
			}
		}
	})
}

// TestMatMulAccIntoBitIdentical holds MatMulAccInto to AddInto(acc, acc,
// MatMul(a, b)) bit for bit (checkAccCase) where its two forms and their
// edges lie: the benchmark workloads' dW shapes; the register form's whole
// 64-column tiles at k up to nzChunk, and one past it; column tails of both
// widths; products wider than the pooled block holds; empty dimensions. Each
// shape runs under every zero share and flag set: NaN and ±Inf in b (so NaN
// and infinite products meet acc's NaN payloads and infinities), all-zero
// rows of a over a -0 accumulator (+0 wins: -0 + +0), borrowed views for a
// and b. A borrowed, misshapen or overlapping accumulator is refused.
func TestMatMulAccIntoBitIdentical(t *testing.T) {
	id := 0
	add := func(m, k, n int) {
		for flags := 0; flags < 8; flags++ {
			id++
			c := kernelCase{m: m, k: k, n: n, seed: int64(id), zeroPct: []int{0, 50, 90, 100}[id%4], flags: flags}
			a, b := c.build()
			checkAccCase(t, c, a, b)
		}
	}
	add(512, 4, 512)
	add(128, 256, 256)
	add(32, 8, 32)
	for _, k := range []int{0, 1, 3, 4, 5, 63, 64, 65, 130} {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 192} {
			add(3, k, n)
		}
	}
	add(17, 70, 1100) // one row is wider than accBlock
	add(0, 5, 64)
	add(33, 2, 31) // blocks of 33 rows, the last one short

	a, b := New(3, 5), New(5, 4)
	for name, acc := range map[string]*Tensor{
		"borrowed":   ViewRange0(New(6, 4), 0, 3),
		"transposed": New(4, 3),
		"a itself":   Reshape(a, 5, 3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatMulAccInto accumulated into a %s destination", name)
				}
			}()
			MatMulAccInto(acc, a, b)
		}()
	}
}

// TestMatMulKernelBitIdentical holds every kernel this build can run (the
// 512-bit tile kernel, the AVX2 kernel, the pure-Go kernel) to the naive
// reference bit for bit: every k and n up to 70 (all n%8 column tails, all
// nnz%4 list tails), every m up to 70, k
// across the compaction-chunk boundaries, n of one and two 64-column tiles
// with and without a tail, all-zero rows, signed zeros, subnormals,
// non-finite b under the zero skip, and unaligned borrowed views.
func TestMatMulKernelBitIdentical(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("kernels held to the reference: %v; this process picked %s", kernels, kernels[0])
	var cases []kernelCase
	id := 0
	add := func(m, k, n int) {
		id++
		cases = append(cases, kernelCase{
			m: m, k: k, n: n, seed: int64(id),
			zeroPct: []int{0, 50, 90, 100}[id%4],
			flags:   (id / 4) % 8,
		})
	}
	for k := 0; k <= 70; k++ {
		for n := 0; n <= 70; n++ {
			add(1, k, n)
			add(3, k, n)
		}
	}
	for m := 0; m <= 70; m++ {
		for _, kn := range [][2]int{{0, 5}, {5, 0}, {7, 9}, {33, 31}, {64, 64}, {70, 70}} {
			add(m, kn[0], kn[1])
		}
	}
	for _, k := range []int{127, 128, 129, 511, 512, 513, 1030} {
		for _, n := range []int{1, 8, 13, 40} {
			for rep := 0; rep < 8; rep++ { // every zero share and flag set
				add(2, k, n)
			}
		}
	}
	for _, n := range []int{63, 64, 65, 71, 127, 128, 129, 135, 263} {
		for _, k := range []int{1, 63, 64, 65, 130} {
			for rep := 0; rep < 8; rep++ { // every zero share and flag set
				add(2, k, n)
			}
		}
	}
	for _, c := range cases {
		checkKernelCase(t, c)
	}
}

// TestMatMulNTBitIdentical holds MatMulNTInto to MatMulInto(a, Transpose(b))
// bit for bit where its two forms and their tails lie: the benchmark
// workloads' three backward shapes, every n%4 column tail against every k%64
// around a list-chunk boundary, row counts on both sides of ntDotRows, and at
// each of them all-zero rows of a, signed zeros, subnormals, Inf and NaN in b
// under a zero of a, and borrowed views for both operands. A destination that
// is borrowed or has the transposed shape is refused like any *Into kernel's.
func TestMatMulNTBitIdentical(t *testing.T) {
	var cases []kernelCase
	id := 0
	add := func(m, k, n int) {
		for flags := 0; flags < 8; flags++ {
			id++
			cases = append(cases, kernelCase{m: m, k: k, n: n, seed: int64(id), zeroPct: []int{0, 50, 90, 100}[id%4], flags: flags})
		}
	}
	add(4, 512, 512)
	add(128, 256, 256)
	add(8, 32, 32)
	for n := 0; n <= 9; n++ {
		for _, k := range []int{0, 1, 63, 64, 65, 130} {
			add(3, k, n)
		}
	}
	for m := ntDotRows - 1; m <= ntDotRows+1; m++ {
		add(m, 70, 13)
		add(m, 5, 131)
	}
	for _, c := range cases {
		checkKernelCase(t, c)
	}

	a, b := New(3, 5), New(4, 5)
	for name, dst := range map[string]*Tensor{
		"borrowed":   ViewRange0(New(6, 4), 0, 3),
		"transposed": New(4, 3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatMulNTInto wrote into a %s destination", name)
				}
			}()
			MatMulNTInto(dst, a, b)
		}()
	}
}

// TestMatMulInlinePathAllocFree pins 0 allocs/op for every matmul entry
// point under every kernel, dense and with half of a zero, on the benchmark
// workloads' shapes — pp4-small's and dp2x2's forward and dW, pp4-compute's
// dW (its forward, 128x256x256, takes the same paths at the same cost, and
// under -race a shape that size is most of this test's time) — and two
// narrower ones: each runs inline on its caller, the non-zero list lives on
// the stack and never escapes into the assembly call, and the pooled scratch
// of the accumulating form and of the few-row a @ bᵀ goes back to its pool.
func TestMatMulInlinePathAllocFree(t *testing.T) {
	type op struct {
		name string
		runs int
		run  func()
	}
	// pooledRuns is the call count of a row that takes scratch from a
	// sync.Pool and puts it back. Under -race a Put is dropped one time in
	// four, and the next call then allocates the item again: two
	// allocations, a Tensor and its storage or a list and its entries.
	// AllocsPerRun reads the floor of the mean, so n calls read 1 once n/2
	// of their n counted puts drop, a Binomial(n, 1/4) tail: 7.8% at n = 10,
	// over some 40 pooled rows a run. At 64 it is 1.5e-5 a row, 6e-4 a run.
	// A call that allocates for itself reads 1 or more whatever drops.
	pooledRuns := 10
	if raceEnabled {
		pooledRuns = 64
	}
	shapes := [][3]int{{8, 32, 32}, {32, 8, 32}, {1, 256, 256}, {2, 600, 24},
		{256, 128, 256}, {4, 512, 512}, {512, 4, 512}}
	for _, s := range shapes {
		for _, zeroPct := range []int{0, 50} {
			c := kernelCase{m: s[0], k: s[1], n: s[2], seed: 1, zeroPct: zeroPct}
			a, b := c.build()
			dst := New(c.m, c.n)
			bn := Transpose(b)
			ops := []op{
				{"MatMulInto", 5, func() { MatMulInto(dst, a, b) }},
				// The product block, where the tiles do not hold a row, is
				// pooled scratch.
				{"MatMulAccInto", pooledRuns, func() { MatMulAccInto(dst, a, b) }},
			}
			if c.m <= ntDotRows {
				// The dot form's lists come from a sync.Pool of their own
				// (the transposed b above ntDotRows is pooled too, and is
				// left out).
				ops = append(ops, op{"MatMulNTInto", pooledRuns, func() { MatMulNTInto(dst, a, bn) }})
			}
			forEachKernel(func(kernel string) {
				for _, o := range ops {
					if n := testing.AllocsPerRun(o.runs, o.run); n != 0 {
						t.Errorf("%s kernel: %s %v zero=%d%% allocates %v times per call", kernel, o.name, s, zeroPct, n)
					}
				}
			})
		}
	}
}

// FuzzMatMulKernel is the differential test driven by the fuzzer, over
// MatMulInto (whose kernels start every row at +0 without reading it),
// MatMulNTInto and MatMulAccInto alike; the committed corpus under
// testdata/fuzz holds the boundary cases (nt-* those of the a @ bᵀ forms,
// tile-* those of the 64-column tiles, acc-* those of the accumulate forms:
// the register tiles and the pooled blocks).
func FuzzMatMulKernel(f *testing.F) {
	f.Add(uint8(3), uint16(5), uint8(9), int64(1), uint8(50), uint8(0))
	f.Add(uint8(2), uint16(513), uint8(13), int64(2), uint8(50), uint8(caseSpecials|caseViews))
	f.Add(uint8(ntDotRows), uint16(65), uint8(7), int64(3), uint8(50), uint8(caseSpecials))
	f.Fuzz(func(t *testing.T, m uint8, k uint16, n uint8, seed int64, zeroPct, flags uint8) {
		checkKernelCase(t, kernelCase{
			m: int(m) % 72, k: int(k) % 1100, n: int(n) % 200,
			seed: seed, zeroPct: int(zeroPct) % 101, flags: int(flags) % 8,
		})
	})
}

// compactValues are what FuzzCompactKernel's bytes choose a's elements from:
// zeros of both signs (a third of the table), NaNs of both signs, both
// infinities, subnormals on both sides of zero, and ordinary values.
var compactValues = []float64{0, 0, 0, math.Copysign(0, -1), math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1e-310, 1, -2.5}

// checkCompact holds compactNonZeros on arow, whose first element is column
// p0 of a row of a over a b of n columns, to compactNonZerosScalar: the same
// count, and the listed entries byte-equal, offsets and value bits. Entries
// past the count are scratch and may differ.
func checkCompact(t testing.TB, arow []float64, p0, n int) {
	t.Helper()
	var got, want [nzChunk]nzEnt
	for i := range got {
		got[i] = nzEnt{-1, math.NaN()}
	}
	nw := compactNonZerosScalar(&want, arow, p0, n)
	ng := compactNonZeros(&got, arow, p0, n)
	if ng != nw {
		t.Fatalf("len %d p0 %d n %d: %d non-zeros, scalar %d", len(arow), p0, n, ng, nw)
	}
	for i, w := range want[:nw] {
		if g := got[i]; g.off != w.off || math.Float64bits(g.val) != math.Float64bits(w.val) {
			t.Fatalf("len %d p0 %d n %d: entry %d = {%d %#x}, scalar {%d %#x}",
				len(arow), p0, n, i, g.off, math.Float64bits(g.val), w.off, math.Float64bits(w.val))
		}
	}
}

// FuzzCompactKernel holds the AVX-512 compaction, where the CPU has it, to
// the scalar one: rows of 0 to 80 elements (past nzChunk, which it must stop
// at, and every n%8 tail), any p0 and n (offsets wrap as the scalar ones do),
// each element either one of compactValues (picked by a byte) or, in raw
// mode, any 8 bytes' float64. The committed corpus under testdata/fuzz holds
// the tails, an all-zero and an all-NaN row and wrapping offsets.
func FuzzCompactKernel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(0), int64(1), false)
	f.Add(make([]byte, 8*70), int64(3), int64(512), true)
	f.Fuzz(func(t *testing.T, row []byte, p0, n int64, raw bool) {
		var arow []float64
		if raw {
			for len(row) >= 8 && len(arow) < 80 {
				arow = append(arow, math.Float64frombits(binary.LittleEndian.Uint64(row)))
				row = row[8:]
			}
		} else {
			for _, c := range row[:min(len(row), 80)] {
				arow = append(arow, compactValues[int(c)%len(compactValues)])
			}
		}
		checkCompact(t, arow, int(p0), int(n))
	})
}

// TestCompactKernelMatchesScalar runs the compaction differential over every
// row length from 0 to 80 with a third of the elements zero, all zero, all
// NaN and all -0, at offsets that wrap, and names the kernels it held.
func TestCompactKernelMatchesScalar(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("compaction kernels held to compactNonZerosScalar: %v", kernels)
	r := rand.New(rand.NewSource(24))
	forEachKernel(func(string) {
		for length := 0; length <= 80; length++ {
			mixed := make([]float64, length)
			for i := range mixed {
				mixed[i] = compactValues[r.Intn(len(compactValues))]
			}
			for _, fill := range []float64{0, math.NaN(), math.Copysign(0, -1)} {
				same := make([]float64, length)
				for i := range same {
					same[i] = fill
				}
				checkCompact(t, same, 5, 3)
			}
			checkCompact(t, mixed, length, 256)
			checkCompact(t, mixed, math.MaxInt/2, 3)
			checkCompact(t, mixed, -7, -1)
		}
	})
}
