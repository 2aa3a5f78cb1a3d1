package tensor

import (
	"math"

	"repro/internal/obs"
)

// The matmul micro-kernel. matMulRows compacts the non-zero entries of one
// row of a into a list of {row offset into b, value} pairs and hands the
// list to axpyList, which exists twice: axpyListAVX2 (Go assembly, amd64
// with AVX2, selected once at init) and axpyListGeneric (pure Go; every
// other GOARCH, amd64 without AVX2, and the purego build tag). Both are the
// same function bit for bit, because both keep the kernel contract:
//
//   - vectorise across output columns j only;
//   - every output element accumulates its terms in ascending p, one
//     rounded multiply then one rounded add per term — exactly the scalar
//     `o[j] += a[i][p]*b[p][j]` loop;
//   - never fuse the multiply into the add: no FMA instruction, no
//     math.FMA, and an explicit float64 conversion of each product so the
//     compiler may not fuse either;
//   - a[i][p] == 0 contributes nothing at all (not 0*b, which would turn an
//     Inf or NaN in b into NaN).

// Left-operand traffic of every matmul, counted where the compaction already
// knows it: elements of a visited and how many of them were non-zero. Their
// ratio is the share of the dense 2mkn flops the zero skip leaves to do.
var (
	cMatMulElems    = obs.Counter("matmul/a_elems")
	cMatMulNonZeros = obs.Counter("matmul/a_nonzeros")
)

// nzEnt is one non-zero of a row of a: off is the element offset of row p of
// b (p*n), val is a[i][p]. The assembly kernel reads it as two 8-byte words.
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
// assembly kernel term for term — four entries per pass over o, then the
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
