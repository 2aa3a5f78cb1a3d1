package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The scalar draws the kernels are held to: Normal's and Uniform's loops
// element by element.
func normalRef(r *RNG, std float64, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = std * r.Norm()
	}
	return d
}

func uniformRef(r *RNG, lo, hi float64, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = lo + float64((hi-lo)*r.Float64())
	}
	return d
}

// checkDraws draws n elements of Normal(std), Uniform(lo, hi) and a Xavier of
// n/7+1 x 7 from a generator at state through every kernel this build has and
// holds each to the scalar draw, and the generator's state after it to the
// scalar generator's, bit for bit (a NaN, from a NaN std, lo or hi, may
// carry either operand's payload, as sameBits allows).
func checkDraws(t testing.TB, state uint64, n int, std, lo, hi float64) {
	t.Helper()
	type draw struct {
		name string
		ref  func(r *RNG) []float64
		got  func(r *RNG) *Tensor
	}
	fanIn := n/7 + 1
	limit := math.Sqrt(6.0 / float64(fanIn+7))
	draws := []draw{
		{fmt.Sprintf("Normal(%v)", std), func(r *RNG) []float64 { return normalRef(r, std, n) },
			func(r *RNG) *Tensor { return r.Normal(std, n) }},
		{fmt.Sprintf("Uniform(%v, %v)", lo, hi), func(r *RNG) []float64 { return uniformRef(r, lo, hi, n) },
			func(r *RNG) *Tensor { return r.Uniform(lo, hi, n) }},
		{fmt.Sprintf("Xavier(%d, 7)", fanIn), func(r *RNG) []float64 { return uniformRef(r, -limit, limit, fanIn*7) },
			func(r *RNG) *Tensor { return r.Xavier(fanIn, 7) }},
	}
	for _, d := range draws {
		ref := &RNG{state: state}
		want := d.ref(ref)
		forEachKernel(func(kernel string) {
			r := &RNG{state: state}
			got := d.got(r).data
			for i, w := range want {
				if !sameBits(got[i], w) {
					t.Fatalf("%s kernel, %s of %d from state %#x: element %d = %#x (%v), scalar %#x (%v)",
						kernel, d.name, len(want), state, i, math.Float64bits(got[i]), got[i], math.Float64bits(w), w)
				}
			}
			if r.state != ref.state {
				t.Fatalf("%s kernel, %s of %d from state %#x: generator left at %#x, scalar at %#x",
					kernel, d.name, len(want), state, r.state, ref.state)
			}
		})
	}
}

// plantZeroU1 returns the state from which element i of a Normal draw takes a
// u1 of 0 — next() returns low, below 2^11 — when every element before it
// takes two steps.
func plantZeroU1(i int, low uint64) uint64 {
	return unmix(low) - uint64(2*i+1)*splitmixGamma
}

// skipNormWalk is the walk SkipNorm replaces: every draw's steps one at a
// time, u1 again while it is 0.
func skipNormWalk(r *RNG, n int) {
	for range n {
		for r.next()>>11 == 0 {
		}
		r.next()
	}
}

// TestSkipNormMatchesWalk holds SkipNorm to the walk: the state it leaves and
// the 64 draws after it, from ordinary states at n of 0, 1, 7, 8, 9 and
// 262 144 (the pp4-compute batch), and from states with a u1 of 0 planted at
// the first, a middle and the last draw (its redraw shifts every later draw
// by one step) or with a u2 of 0 there (no redraw), at several lows.
func TestSkipNormMatchesWalk(t *testing.T) {
	check := func(state uint64, n int) {
		t.Helper()
		got, want := &RNG{state: state}, &RNG{state: state}
		got.SkipNorm(n)
		skipNormWalk(want, n)
		if got.state != want.state {
			t.Fatalf("SkipNorm(%d) from %#x leaves %#x, the walk %#x", n, state, got.state, want.state)
		}
		for i := range 64 {
			if g, w := got.Norm(), want.Norm(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("SkipNorm(%d) from %#x: draw %d after it is %v, after the walk %v", n, state, i, g, w)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 262144} {
		check(uint64(n)*0x1234567+3, n)
		check(NewRNG(uint64(n)).state, n)
	}
	for _, n := range []int{1, 2, 9, 1000, 262144} {
		for _, i := range []int{0, n / 2, n - 1} {
			for _, low := range []uint64{0, 1, 1<<11 - 1} {
				walked := &RNG{state: plantZeroU1(i, low)}
				before := *walked
				skipNormWalk(walked, n)
				if walked.state-before.state == 2*uint64(n)*splitmixGamma {
					t.Fatalf("the u1 planted at draw %d of %d was not drawn again", i, n)
				}
				check(plantZeroU1(i, low), n)
				check(plantZeroU1(i, low)-splitmixGamma, n) // a u2 of 0
			}
		}
	}
}

// TestDrawKernelBitIdentical holds Normal, Uniform and Xavier on every kernel
// to the scalar draws: every length to 70 (every n%8 tail), a u1 of 0 planted
// in each lane of the first, second and last block (the kernel hands that
// block to the scalar loop, which redraws the u1), a u2 of 0 (cos 0, no
// redraw), and std, lo and hi of zero, negative, infinite and NaN.
func TestDrawKernelBitIdentical(t *testing.T) {
	var kernels []string
	forEachKernel(func(kernel string) { kernels = append(kernels, kernel) })
	t.Logf("draw kernels held to the scalar draws: %v", kernels)
	for i := range uint64(4) {
		if got := (&RNG{state: unmix(i) - splitmixGamma}).next(); got != i {
			t.Fatalf("unmix(%d) steps to an output of %d", i, got)
		}
	}
	for n := 0; n <= 70; n++ {
		checkDraws(t, uint64(n)*0x1234567, n, 1, -2, 3)
	}
	for _, n := range []int{8, 16, 63, 64, 1000} {
		for _, block := range []int{0, 1, n/8 - 1} {
			for lane := 0; lane < 8; lane++ {
				i := 8*block + lane
				checkDraws(t, plantZeroU1(i, uint64(i)), n, 0.5, 0, 1)
				checkDraws(t, plantZeroU1(i, 0)-splitmixGamma, n, 1, 0, 1) // u2 of 0
			}
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -3, math.Inf(1), math.Inf(-1), math.NaN()} {
		checkDraws(t, 11, 37, v, v, 2)
		checkDraws(t, 12, 37, 1, -1, v)
	}
}

// FuzzNormalKernel is the draw's differential test driven by the fuzzer: any
// starting state, length, std, lo and hi, and with plant set, a u1 of 0 at
// element plant-1 (the state is then derived from it). The committed corpus
// under testdata/fuzz holds a planted zero in each lane of a block and the
// n%8 tails.
func FuzzNormalKernel(f *testing.F) {
	f.Add(uint64(1), uint16(20), 1.0, -1.0, 1.0, uint8(0))
	f.Add(uint64(0), uint16(64), 0.5, 0.0, 1.0, uint8(9))
	f.Fuzz(func(t *testing.T, state uint64, n uint16, std, lo, hi float64, plant uint8) {
		if plant > 0 {
			state = plantZeroU1(int(plant)-1, state%(1<<11))
		}
		checkDraws(t, state, int(n)%300, std, lo, hi)
	})
}
