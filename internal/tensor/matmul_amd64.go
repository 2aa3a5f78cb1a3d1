//go:build !purego

package tensor

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyListAVX2(o, b *float64, n int, nzs *nzEnt, nnz int)

//go:noescape
func axpyTileAVX512(o, b *float64, n int, nzs *nzEnt, nnz int)

// useAVX2 and useAVX512 are decided once at init; tests clear them to run
// the narrower kernels through the same entry points. The 512-bit kernel
// leaves its column tail to the AVX2 one, so it needs both.
var (
	useAVX2   = detectAVX2()
	useAVX512 = useAVX2 && detectAVX512()
)

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

// detectAVX512 reports whether the CPU has AVX-512F and the OS saves the
// opmask and ZMM state (XCR0 bits 1-2 and 5-7, leaf 7 EBX bit 16); call it
// only once detectAVX2 holds.
func detectAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

// axpyList accumulates the listed rows of b into o; see axpyListGeneric.
// o must be non-empty and every nzs[t].off+len(o) within b: the assembly
// does no bounds checks.
func axpyList(o, b []float64, nzs []nzEnt) {
	n := len(o)
	switch {
	case useAVX512 && n >= 64:
		axpyTileAVX512(&o[0], &b[0], n, &nzs[0], len(nzs))
		if t := n &^ 63; t < n {
			axpyListAVX2(&o[t], &b[t], n-t, &nzs[0], len(nzs))
		}
	case useAVX2:
		axpyListAVX2(&o[0], &b[0], n, &nzs[0], len(nzs))
	default:
		axpyListGeneric(o, b, nzs)
	}
}
