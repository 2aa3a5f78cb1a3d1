//go:build !purego

package tensor

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyListAVX2(o, b *float64, n int, nzs *nzEnt, nnz int, zero bool)

//go:noescape
func axpyTileAVX512(o, b *float64, n int, nzs *nzEnt, nnz, mode int)

// The modes of axpyTileAVX512: where a tile's lanes start, and what it
// stores.
const (
	tileAcc   = iota // from o: o += list
	tileZero         // from +0, o never read: o = chain
	tileAddTo        // from +0, o + chain stored: the fused AddInto
)

//go:noescape
func compactAVX512(nzs *nzEnt, arow *float64, n, off, stride int) int

// useAVX2 and useAVX512 are decided once at init; tests clear them to run
// the narrower kernels through the same entry points. The 512-bit kernel
// leaves its column tail to the AVX2 one, so it needs both.
var (
	useAVX2   = detectAVX2()
	useAVX512 = useAVX2 && detectAVX512()
)

// avx512Blocks is how many leading elements of an n-element loop the
// AVX-512 kernels take, eight at a time: n&^7 where the CPU has them, else 0.
// The scalar loop runs the rest.
func avx512Blocks(n int) int {
	if useAVX512 {
		return n &^ 7
	}
	return 0
}

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

// detectAVX512 reports whether the CPU has AVX-512F and AVX-512DQ (leaf 7
// EBX bits 16-17) and POPCNT (leaf 1 ECX bit 23), and the OS saves the opmask
// and ZMM state (XCR0 bits 1-2 and 5-7); call it only once detectAVX2 holds.
// Every AVX-512 CPU but the Xeon Phi has all three; the Phi runs the AVX2
// kernels.
func detectAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const f, dq, popcnt = 1 << 16, 1 << 17, 1 << 23
	return ebx7&(f|dq) == f|dq && ecx1&popcnt != 0
}

// compactNonZeros lists the non-zeros of arow; see compactNonZerosScalar,
// whose list and count compactAVX512 reproduces byte for byte.
func compactNonZeros(nzs *[nzChunk]nzEnt, arow []float64, p0, n int) int {
	if useAVX512 && len(arow) > 0 {
		return compactAVX512(&nzs[0], &arow[0], min(len(arow), nzChunk), p0*n, n)
	}
	return compactNonZerosScalar(nzs, arow, p0, n)
}

// axpyList accumulates the listed rows of b into o, or with zero set stores
// their chain from +0 there without reading o; see axpyListGeneric. o and
// nzs must be non-empty and every nzs[t].off+len(o) within b: the assembly
// does no bounds checks.
func axpyList(o, b []float64, nzs []nzEnt, zero bool) {
	n := len(o)
	switch {
	case useAVX512 && n >= 64:
		mode := tileAcc
		if zero {
			mode = tileZero
		}
		axpyTileAVX512(&o[0], &b[0], n, &nzs[0], len(nzs), mode)
		if t := n &^ 63; t < n {
			axpyListAVX2(&o[t], &b[t], n-t, &nzs[0], len(nzs), zero)
		}
	case useAVX2:
		axpyListAVX2(&o[0], &b[0], n, &nzs[0], len(nzs), zero)
	default:
		axpyListGeneric(o, b, nzs, zero)
	}
}

// matMulAccTiles is matMulAccRows where each row's chain fits in the tile
// kernel's registers: an AVX-512 CPU, whole 64-column tiles (n%64 == 0), and
// one list per row (0 < k <= nzChunk). Each row is compacted once, and
// axpyTileAVX512 starts every tile at +0, runs the list and stores acc +
// chain, acc first: no product row touches memory. A row with no non-zero
// adds +0. It reports false, having done nothing, where it does not apply.
func matMulAccTiles(acc, a, b []float64, m, k, n int, nzs *[nzChunk]nzEnt) (nonZeros int, ok bool) {
	if !useAVX512 || n%64 != 0 || k == 0 || k > nzChunk {
		return 0, false
	}
	for i := 0; i < m; i++ {
		nz := compactNonZeros(nzs, a[i*k:(i+1)*k], 0, n)
		axpyTileAVX512(&acc[i*n], &b[0], n, &nzs[0], nz, tileAddTo)
		nonZeros += nz
	}
	return nonZeros, true
}
