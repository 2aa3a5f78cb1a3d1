//go:build !purego

package tensor

// forEachKernel runs f once per matmul kernel this build can execute: the
// assembly kernel when the CPU has AVX2, then the pure-Go kernel through the
// same entry points.
func forEachKernel(f func(kernel string)) {
	if useAVX2 {
		f("avx2")
		useAVX2 = false
		defer func() { useAVX2 = true }()
	}
	f("generic")
}
