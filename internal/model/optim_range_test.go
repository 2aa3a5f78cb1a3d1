package model

import (
	"math"
	"testing"
)

// rangeFixture builds deterministic, sign-mixed inputs including negative
// zeros (ReLU masking produces them) so bit-comparison is meaningful.
func rangeFixture(n int) (params, grads []float64) {
	params = make([]float64, n)
	grads = make([]float64, n)
	for j := range params {
		params[j] = math.Sin(float64(j)*0.7) * 3
		grads[j] = math.Cos(float64(j)*1.3) * 0.5
		if j%17 == 0 {
			grads[j] = math.Copysign(0, -1)
		}
	}
	return
}

// splits partitions [0, n) into uneven contiguous ranges, including an empty
// one — the shapes the balanced world partition produces.
func splits(n int) [][2]int {
	a := n / 3
	b := n / 2
	return [][2]int{{0, a}, {a, a}, {a, b}, {b, n}}
}

func requireSameBits(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: elem %d: sharded %v (bits %x) != full %v (bits %x)",
				kernel, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestSGDRangeShardDecomposition pins the property the ZeRO epilogue rests
// on: applying the kernel to disjoint sub-ranges composes to the full-range
// result bit for bit.
func TestSGDRangeShardDecomposition(t *testing.T) {
	const n, lr = 257, 0.3
	params, grads := rangeFixture(n)
	full := make([]float64, n)
	SGDRange(full, params, grads, lr)

	sharded := make([]float64, n)
	for _, s := range splits(n) {
		lo, hi := s[0], s[1]
		SGDRange(sharded[lo:hi], params[lo:hi], grads[lo:hi], lr)
	}
	requireSameBits(t, "sgd", sharded, full)
}

// TestMomentumRangeShardDecomposition proves the same with in-place optimizer
// state: shard-local velocity slices evolve identically to slices of the full
// velocity vector across multiple steps.
func TestMomentumRangeShardDecomposition(t *testing.T) {
	const n, lr, mu = 257, 0.3, 0.9
	params, grads := rangeFixture(n)
	fullVel := make([]float64, n)
	shardVel := make([]float64, n)
	full := make([]float64, n)
	sharded := make([]float64, n)
	fp := append([]float64(nil), params...)
	sp := append([]float64(nil), params...)
	for step := 0; step < 4; step++ {
		MomentumRange(full, fp, grads, fullVel, lr, mu)
		for _, s := range splits(n) {
			lo, hi := s[0], s[1]
			MomentumRange(sharded[lo:hi], sp[lo:hi], grads[lo:hi], shardVel[lo:hi], lr, mu)
		}
		requireSameBits(t, "momentum", sharded, full)
		requireSameBits(t, "momentum vel", shardVel, fullVel)
		copy(fp, full)
		copy(sp, sharded)
	}
}

// quadraticLoss runs steps of update on 0.5·|p|², whose gradient is p, and
// returns the final loss.
func quadraticLoss(steps int, update func(dst, params, grads []float64)) float64 {
	p := []float64{3, -2, 1.5, -0.5}
	next := make([]float64, len(p))
	for range steps {
		update(next, p, p)
		p, next = next, p
	}
	loss := 0.0
	for _, v := range p {
		loss += 0.5 * v * v
	}
	return loss
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	final := quadraticLoss(100, func(dst, params, grads []float64) { SGDRange(dst, params, grads, 0.1) })
	if final > 1e-6 {
		t.Fatalf("SGD final loss %v", final)
	}
}

func TestMomentumConverges(t *testing.T) {
	vel := make([]float64, 4)
	final := quadraticLoss(200, func(dst, params, grads []float64) { MomentumRange(dst, params, grads, vel, 0.05, 0.9) })
	if final > 1e-6 {
		t.Fatalf("momentum final loss %v", final)
	}
}
