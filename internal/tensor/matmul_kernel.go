package tensor

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// The matmul micro-kernel. matMulRows compacts the non-zero entries of one
// row of a, nzChunk (64) columns at a time, into a list of {row offset into
// b, value} pairs and hands each list to axpyList, which runs one of three
// kernels, chosen once at init from CPUID:
//
//   - axpyTileAVX512 (Go assembly, amd64 with AVX-512F): each full 64-column
//     tile of the output row stays in eight ZMM registers across the whole
//     list, loaded and stored once; the n%64 column tail, and any row
//     narrower than 64, goes to axpyListAVX2;
//   - axpyListAVX2 (Go assembly, amd64 with AVX2 but not AVX-512): four
//     list entries per pass over the output row;
//   - axpyListGeneric (pure Go): every other GOARCH, amd64 without AVX2, and
//     the purego build tag.
//
// All three are the same function bit for bit, because all keep the kernel
// contract:
//
//   - vectorise across output columns j only;
//   - every output element accumulates its terms in ascending p, one
//     rounded multiply then one rounded add per term — exactly the scalar
//     `o[j] += a[i][p]*b[p][j]` loop;
//   - never fuse the multiply into the add: no FMA instruction, no
//     math.FMA, and an explicit float64 conversion of each product so the
//     compiler may not fuse either (an arch_test.go row holds the non-test
//     Go and the assembly files under internal/ to this);
//   - a[i][p] == 0 contributes nothing at all (not 0*b, which would turn an
//     Inf or NaN in b into NaN).
//
// matMulNTDot, the few-row form of a @ bᵀ, keeps the same contract with the
// loops turned round: it vectorises nothing, and an output element is one
// ascending-p chain over two contiguous rows. ntDotRows, the most rows it
// takes, is also the threshold above which a compiled step transposes a
// weight once, in its prologue (HoistsTranspose), instead of every product.

// Left-operand traffic of every matmul, counted where the compaction already
// knows it: elements of a visited and how many of them were non-zero. Their
// ratio is the share of the dense 2mkn flops the zero skip leaves to do.
var (
	cMatMulElems    = obs.Counter("matmul/a_elems")
	cMatMulNonZeros = obs.Counter("matmul/a_nonzeros")
)

// nzEnt is one non-zero of a row of a: off is the element offset of row p of
// b (p*n), val is a[i][p]. The assembly kernels read it as two 8-byte words.
type nzEnt struct {
	off int
	val float64
}

// nzChunk bounds the stack-resident non-zero list: a row of a is compacted
// nzChunk columns at a time. The list must stay small enough (1 KiB) that a
// fresh goroutine's stack holds matMulRows without growing: the runtime
// spawns one goroutine per actor per step, and each would otherwise pay a
// stack copy on its first matmul, a shrink at the next GC cycle, and the
// zeroing of the whole list on every call. Kernel throughput measured the
// same from 64 to 512 entries — a chunk costs one more pass over the output
// row per 64 rows of b.
const nzChunk = 64

// compactNonZeros writes the non-zeros of arow, whose first element is
// column p0 of a, to nzs and returns how many there are. The store is
// unconditional and only the count is data-dependent, so half-zero rows
// (post-ReLU activations, masked cotangents) cost no branch mispredictions.
func compactNonZeros(nzs *[nzChunk]nzEnt, arow []float64, p0, n int) int {
	nz := 0
	for p, av := range arow[:min(len(arow), nzChunk)] {
		// nz <= p < nzChunk: the mask only elides the bounds check.
		nzs[nz&(nzChunk-1)] = nzEnt{(p0 + p) * n, av}
		// av != 0 (true for NaN) as an integer test, so it compiles to a
		// conditional move instead of a branch.
		if math.Float64bits(av)<<1 != 0 {
			nz++
		}
	}
	return nz
}

// axpyListGeneric is the pure-Go kernel: for each entry t of nzs in order,
// o[j] = o[j] + nzs[t].val*b[nzs[t].off+j] over every j. It mirrors the
// AVX2 kernel term for term — four entries per pass over o, then the
// remainder singly. The float64 conversions are load-bearing: the spec lets a
// compiler fuse x*y+z into one rounding unless the product is explicitly
// converted, and the arm64, ppc64, s390x and riscv64 back ends do. Fused, the
// fallback would round once where the assembly rounds twice.
func axpyListGeneric(o, b []float64, nzs []nzEnt) {
	n := len(o)
	for ; len(nzs) >= 4; nzs = nzs[4:] {
		a0, a1, a2, a3 := nzs[0].val, nzs[1].val, nzs[2].val, nzs[3].val
		b0 := b[nzs[0].off:][:n]
		b1 := b[nzs[1].off:][:n]
		b2 := b[nzs[2].off:][:n]
		b3 := b[nzs[3].off:][:n]
		for j, v := range o {
			v = v + float64(a0*b0[j])
			v = v + float64(a1*b1[j])
			v = v + float64(a2*b2[j])
			v = v + float64(a3*b3[j])
			o[j] = v
		}
	}
	for _, e := range nzs {
		brow := b[e.off:][:n]
		for j, v := range o {
			o[j] = v + float64(e.val*brow[j])
		}
	}
}

// ntDotRows is the most rows of a for which MatMulNTInto reads b in place.
// The dot form is bound by the latency of its four add chains, about one
// term a cycle whatever the shape; materialising bᵀ costs k*n element moves
// once (1.1-1.4 ns each while source and copy fit L2, 5.3 at 512x512) and
// then buys the vector kernel, several terms a cycle, for every row. So the
// choice belongs to the row count: the two cross near 4-6 rows while b is
// cache-resident and near 40 at width 512. BenchmarkMatMulNT holds both
// forms at the benchmark workloads' shapes and at 16/32/64 rows of width
// 512: 16 takes the 2.5x (dense) to 5x (half-zero a) of 4x512x512, gives up
// 1-3 us a product at 8x32x32 (1.3-1.9x), and leaves 128x256x256, which the
// dot form would run 2.4x slower, where it was.
//
// The same trade decides where a step transposes a weight once
// (HoistsTranspose): a b that does not change within a step is transposed
// once a step when the products that read it have more than ntDotRows rows
// a step between them, and each is then MatMulInto on the ready bᵀ.
// pp4-small's 16 microbatches of 8 rows (128 a step) hoist, paying 32x32
// moves once for 16 dot forms of 3.6 us that become 0.8 us products;
// dp2x2's 2 of 4 rows (8 a step) keep the dot form, where a hoist pays a
// 512x512 transpose a step for two products and ran the last stage's
// segment 1.2x slower.
const ntDotRows = 16

// HoistsTranspose reports whether products that read the transpose of a
// step-invariant b, rowsPerStep rows of a between them every step, are
// better served by one bᵀ a step and MatMulInto than by MatMulNTInto on each:
// rowsPerStep > ntDotRows.
func HoistsTranspose(rowsPerStep int) bool { return rowsPerStep > ntDotRows }

// ntLists recycles the non-zero lists of matMulNTDot: up to ntDotRows*k
// entries, too many for the stack matMulRows keeps its one chunk on.
var ntLists = sync.Pool{New: func() any { return new([]nzEnt) }}

// matMulNTDot computes dst = a @ bᵀ for an a of m <= ntDotRows rows, b given
// row-major (n, k): dst[i][q] is the dot product of row i of a and row q of
// b, so nothing is transposed. Every row of a is compacted once; four rows
// of b at a time are then read once, front to back, and dotted with each
// list — four independent add chains, b leaves memory once for all of a.
// Each chain starts at +0 and takes its terms in ascending p with the
// product rounded before the add, which is matMulRows on Transpose(b) bit for
// bit.
func matMulNTDot(dst, a, b []float64, m, k, n int) {
	// A row's list is compactNonZeros chunk by chunk with n = 1 — off is the
	// column p itself, an index into a row of b — each chunk written where
	// the last one's non-zeros ended; the store of a whole chunk there needs
	// nzChunk entries of slack behind the k a row can fill.
	stride := k + nzChunk
	lp := ntLists.Get().(*[]nzEnt)
	if cap(*lp) < m*stride {
		*lp = make([]nzEnt, m*stride)
	}
	lists := (*lp)[:m*stride]
	var count [ntDotRows]int
	nonZeros := 0
	for i := 0; i < m; i++ {
		arow, list := a[i*k:(i+1)*k], lists[i*stride:(i+1)*stride]
		for p0 := 0; p0 < k; p0 += nzChunk {
			count[i] += compactNonZeros((*[nzChunk]nzEnt)(list[count[i]:]), arow[p0:], p0, 1)
		}
		nonZeros += count[i]
	}
	q := 0
	for ; q+4 <= n; q += 4 {
		// Equal lengths let one bounds check on e.off serve all four rows.
		b0, b1, b2, b3 := b[q*k:][:k], b[(q+1)*k:][:k], b[(q+2)*k:][:k], b[(q+3)*k:][:k]
		for i := 0; i < m; i++ {
			var s0, s1, s2, s3 float64
			for _, e := range lists[i*stride:][:count[i]] {
				s0 = s0 + float64(e.val*b0[e.off])
				s1 = s1 + float64(e.val*b1[e.off])
				s2 = s2 + float64(e.val*b2[e.off])
				s3 = s3 + float64(e.val*b3[e.off])
			}
			o := dst[i*n+q:][:4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; q < n; q++ {
		bq := b[q*k:][:k]
		for i := 0; i < m; i++ {
			var s float64
			for _, e := range lists[i*stride:][:count[i]] {
				s = s + float64(e.val*bq[e.off])
			}
			dst[i*n+q] = s
		}
	}
	ntLists.Put(lp)
	obs.Add(cMatMulElems, int64(m*k))
	obs.Add(cMatMulNonZeros, int64(nonZeros))
}
