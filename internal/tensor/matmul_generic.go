//go:build !amd64 || purego

package tensor

// axpyList accumulates the listed rows of b into o; see axpyListGeneric.
func axpyList(o, b []float64, nzs []nzEnt) { axpyListGeneric(o, b, nzs) }
