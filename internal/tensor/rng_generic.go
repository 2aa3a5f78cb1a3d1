//go:build !amd64 || purego

package tensor

// normBlocks draws nothing: the scalar loop draws every element.
func (r *RNG) normBlocks(d []float64, std float64) int { return 0 }

// uniformBlocks draws nothing: the scalar loop draws every element.
func (r *RNG) uniformBlocks(d []float64, lo, scale float64) int { return 0 }
