package tensor

import (
	"math"
	"sync"
)

// RNG is a small deterministic pseudo-random generator (splitmix64 state with
// xorshift output) used for reproducible weight initialization without
// depending on math/rand seeding behavior across Go versions. Where the CPU
// has AVX-512, Normal, Uniform and Xavier draw eight elements at a time
// (rng_amd64.s), each element and the state left behind bit for bit those of
// the scalar draws, which every other build runs.
type RNG struct {
	state uint64
}

// splitmixGamma is the step of RNG's state, and gammaInverse its inverse
// modulo 2^64 (the step is odd).
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	gammaInverse  = 0xF1DE83E19937733D
)

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed*splitmixGamma + 0x632BE59BD9B4E019}
}

func (r *RNG) next() uint64 {
	r.state += splitmixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Norm returns an approximately standard-normal value (Box-Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*logScalar(u1)) * math.Cos(2*math.Pi*u2)
}

// Skip advances the generator past n draws of one step each — the elements
// of Uniform and Xavier, the rows of OneHotBatch — in O(1), leaving it where
// drawing them would.
func (r *RNG) Skip(n int) {
	r.state += uint64(n) * 0x9E3779B97F4A7C15
}

// unmix inverts splitmix64's output function: the state whose next() step,
// taken from unmix(z) - splitmixGamma, returns z. Each xorshift is undone by
// repeating it until the shifted bits run out, each multiply by the odd
// multiplier's inverse mod 2^64.
func unmix(z uint64) uint64 {
	unshift := func(z uint64, k uint) uint64 {
		x := z
		for s := k; s < 64; s += k {
			x = z ^ x>>k
		}
		return x
	}
	inverse := func(a uint64) uint64 {
		x := a // Newton's iteration, each step doubling the correct low bits
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// zeroU1Steps holds, for each of the 2^11 outputs of next() that make a u1
// of 0, the state that step lands on times gammaInverse: from a state s, the
// step k that lands there is the entry minus s*gammaInverse, mod 2^64.
var zeroU1Steps = sync.OnceValue(func() *[1 << 11]uint64 {
	var steps [1 << 11]uint64
	for z := range steps {
		steps[z] = unmix(uint64(z)) * gammaInverse
	}
	return &steps
})

// SkipNorm advances the generator past n Norm draws — the elements of Normal
// — without computing them. A draw takes two steps, u1 then u2, unless its
// u1 is 0 and drawn again; the states whose step gives a u1 of 0 are the
// 2^11 of zeroU1Steps, so the first draw among the n whose u1 step lands on
// one (an odd step below 2n) is found from those, not by walking. The draws
// before it are skipped at once, it is drawn as Norm draws it, and the rest
// are skipped the same way from the state it leaves.
func (r *RNG) SkipNorm(n int) {
	for n > 0 {
		from := r.state * gammaInverse
		first := 2 * uint64(n)
		for _, t := range zeroU1Steps() {
			if k := t - from; k&1 == 1 && k < first {
				first = k
			}
		}
		i := int(first / 2) // the draws before step first take two steps each
		r.state += 2 * uint64(i) * splitmixGamma
		if i == n {
			return
		}
		for r.next()>>11 == 0 { // u1 == 0: Norm draws it again
		}
		r.next() // u2
		n -= i + 1
	}
}

// Uniform fills a new tensor with uniform values in [lo, hi). Where the CPU
// has AVX-512 the leading blocks of eight elements are drawn at once
// (uniformBlocksAVX512), each element bit for bit the scalar draw's.
func (r *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := r.uniformBlocks(t.data, lo, hi-lo); i < len(t.data); i++ {
		t.data[i] = lo + float64((hi-lo)*r.Float64())
	}
	return t
}

// Normal fills a new tensor with N(0, std^2) values. Where the CPU has
// AVX-512, blocks of eight elements are drawn at once (normBlocksAVX512), each
// element bit for bit the scalar std*Norm(). A block whose draw would need a
// u1 redrawn is left to the scalar loop from its first element, so the
// generator steps exactly as the scalar draws would; so is the n%8 tail.
func (r *RNG) Normal(std float64, shape ...int) *Tensor {
	t := New(shape...)
	d := t.data
	for i := 0; i < len(d); {
		i += r.normBlocks(d[i:], std)
		for end := min(i+8, len(d)); i < end; i++ {
			d[i] = std * r.Norm()
		}
	}
	return t
}

// Xavier fills a new rank-2 tensor with Glorot-uniform values.
func (r *RNG) Xavier(fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return r.Uniform(-limit, limit, fanIn, fanOut)
}

// OneHotBatch builds a (rows, classes) one-hot matrix with random classes,
// useful for synthetic classification targets.
func (r *RNG) OneHotBatch(rows, classes int) *Tensor {
	t := New(rows, classes)
	for i := 0; i < rows; i++ {
		c := int(r.next() % uint64(classes))
		t.data[i*classes+c] = 1
	}
	return t
}
