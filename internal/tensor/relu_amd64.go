//go:build !purego

package tensor

//go:noescape
func reluBlocksAVX512(dst, src *float64, n int)

//go:noescape
func reluMaskBlocksAVX512(dst, src *float64, n int)

//go:noescape
func mulReLUMaskBlocksAVX512(dst, ct, h *float64, n int)

// relu is reluScalar, its leading blocks in reluBlocksAVX512.
func relu(out, a []float64) {
	if j := avx512Blocks(len(a)); j > 0 {
		reluBlocksAVX512(&out[0], &a[0], j)
		out, a = out[j:], a[j:]
	}
	reluScalar(out, a)
}

// reluMask is reluMaskScalar, its leading blocks in reluMaskBlocksAVX512.
func reluMask(out, a []float64) {
	if j := avx512Blocks(len(a)); j > 0 {
		reluMaskBlocksAVX512(&out[0], &a[0], j)
		out, a = out[j:], a[j:]
	}
	reluMaskScalar(out, a)
}

// mulReLUMask is mulReLUMaskScalar, its leading blocks in
// mulReLUMaskBlocksAVX512 in either operand order.
func mulReLUMask(out, ct, h []float64, maskLeft bool) {
	if j := avx512Blocks(len(ct)); j > 0 {
		mulReLUMaskBlocksAVX512(&out[0], &ct[0], &h[0], j)
		out, ct, h = out[j:], ct[j:], h[j:]
	}
	mulReLUMaskScalar(out, ct, h, maskLeft)
}
