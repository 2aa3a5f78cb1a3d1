//go:build !amd64 || purego

package tensor

// forEachKernel runs f once per matmul kernel this build can execute: only
// the pure-Go kernel here.
func forEachKernel(f func(kernel string)) { f("generic") }
