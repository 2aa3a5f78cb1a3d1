//go:build !purego

package tensor

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyListAVX2(o, b *float64, n int, nzs *nzEnt, nnz int)

// useAVX2 is decided once at init; tests flip it to run the pure-Go kernel
// through the same entry points.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state (CPUID leaf 1 OSXSAVE+AVX, XCR0 bits 1-2, leaf 7 AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// axpyList accumulates the listed rows of b into o; see axpyListGeneric.
// o must be non-empty and every nzs[t].off+len(o) within b: the assembly
// does no bounds checks.
func axpyList(o, b []float64, nzs []nzEnt) {
	if !useAVX2 {
		axpyListGeneric(o, b, nzs)
		return
	}
	axpyListAVX2(&o[0], &b[0], len(o), &nzs[0], len(nzs))
}
