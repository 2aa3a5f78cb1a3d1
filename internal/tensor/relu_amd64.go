//go:build !purego

package tensor

//go:noescape
func reluBlocksAVX512(dst, src *float64, n int)

//go:noescape
func reluMaskBlocksAVX512(dst, src *float64, n int)

//go:noescape
func mulReLUMaskBlocksAVX512(dst, ct, h *float64, n int)

//go:noescape
func addReluBlocksAVX512(span, c *float64, n int)

//go:noescape
func addReluBroadcastBlocksAVX512(span *float64, n int, c float64)

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

// addRelu is addReluScalar, its leading blocks in addReluBlocksAVX512.
func addRelu(span, cs []float64) {
	if j := avx512Blocks(len(span)); j > 0 {
		addReluBlocksAVX512(&span[0], &cs[0], j)
		span, cs = span[j:], cs[j:]
	}
	addReluScalar(span, cs)
}

// addReluBroadcast is addReluBroadcastScalar, its leading blocks in
// addReluBroadcastBlocksAVX512.
func addReluBroadcast(span []float64, cv float64) {
	if j := avx512Blocks(len(span)); j > 0 {
		addReluBroadcastBlocksAVX512(&span[0], j, cv)
		span = span[j:]
	}
	addReluBroadcastScalar(span, cv)
}
