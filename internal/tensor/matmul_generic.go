//go:build !amd64 || purego

package tensor

// axpyList accumulates the listed rows of b into o; see axpyListGeneric.
func axpyList(o, b []float64, nzs []nzEnt) { axpyListGeneric(o, b, nzs) }

// MatMulKernel names the matmul micro-kernel this process runs: "avx2" or
// "generic".
func MatMulKernel() string { return "generic" }
