//go:build !amd64 || purego

package tensor

// Without the AVX-512 kernels each ReLU loop is its scalar loop.

// relu is reluScalar.
func relu(out, a []float64) { reluScalar(out, a) }

// reluMask is reluMaskScalar.
func reluMask(out, a []float64) { reluMaskScalar(out, a) }

// mulReLUMask is mulReLUMaskScalar.
func mulReLUMask(out, ct, h []float64, maskLeft bool) { mulReLUMaskScalar(out, ct, h, maskLeft) }
