package model

// Fused flat-range optimizer kernels: the one source of the elementwise
// update arithmetic of SGD and heavy-ball momentum, the apply-gradient step
// of the paper's training loop (Fig. 4). Every lane is independent, so
// applying a kernel to sub-ranges of the flat parameter vector composes to
// the full-range result bit-for-bit — the property the ZeRO-sharded epilogue
// rests on: each rank updates only its owner-major shard (with shard-local
// optimizer state) and the gathered parameters are identical to a replicated
// update. distrun's distributed epilogue and its RunLocal oracle both call
// these, so the two paths cannot drift.

// SGDRange writes params - lr·grads into dst elementwise.
func SGDRange(dst, params, grads []float64, lr float64) {
	for j, g := range grads {
		dst[j] = params[j] - float64(lr*g)
	}
}

// MomentumRange runs one fused heavy-ball step: vel updates in place
// (v ← mu·v + g) and dst receives params − lr·v.
func MomentumRange(dst, params, grads, vel []float64, lr, mu float64) {
	for j, g := range grads {
		v := float64(mu*vel[j]) + g
		vel[j] = v
		dst[j] = params[j] - float64(lr*v)
	}
}
