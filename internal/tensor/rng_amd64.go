//go:build !purego

package tensor

//go:noescape
func normBlocksAVX512(dst *float64, n int, state *uint64, std float64) int

//go:noescape
func uniformBlocksAVX512(dst *float64, n int, state *uint64, lo, scale float64)

// normBlocks stores std*r.Norm() into the leading blocks of eight elements of
// d that normBlocksAVX512 takes and returns how many: every whole block up to
// the first whose draw needs a u1 redrawn, or none without AVX-512.
func (r *RNG) normBlocks(d []float64, std float64) int {
	if !useAVX512 || len(d) < 8 {
		return 0
	}
	return normBlocksAVX512(&d[0], len(d), &r.state, std)
}

// uniformBlocks stores lo + scale*r.Float64() into the leading len(d)&^7
// elements of d where the CPU has AVX-512, and returns how many it wrote.
func (r *RNG) uniformBlocks(d []float64, lo, scale float64) int {
	j := avx512Blocks(len(d))
	if j > 0 {
		uniformBlocksAVX512(&d[0], j, &r.state, lo, scale)
	}
	return j
}
