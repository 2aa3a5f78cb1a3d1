//go:build !amd64 || purego

package tensor

// addSame stores a[i] + b[i] into out[i] for every i (out may be a or b
// itself).
func addSame(out, a, b []float64) { addScalar(out, a, b) }
