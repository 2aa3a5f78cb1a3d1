//go:build !purego

package tensor

// forEachKernel runs f once per matmul kernel this build can execute, widest
// first: the 512-bit tile kernel when the CPU has AVX-512, the AVX2 kernel
// when it has AVX2, then the pure-Go kernel, all through the same entry
// points.
func forEachKernel(f func(kernel string)) {
	avx2, avx512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	if useAVX512 {
		f("avx512")
		useAVX512 = false
	}
	if useAVX2 {
		f("avx2")
		useAVX2 = false
	}
	f("generic")
}
