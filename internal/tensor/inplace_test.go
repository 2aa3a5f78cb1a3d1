package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// rnd returns a deterministic random tensor.
func rnd(r *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.NormFloat64()
	}
	return t
}

// TestIntoKernelsMatchPure checks every destination-passing kernel against
// its pure counterpart (golden equality), both into fresh storage and in
// place over an operand.
func TestIntoKernelsMatchPure(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := rnd(r, 6, 5)
	b := rnd(r, 6, 5)
	s := Scalar(1.75)

	binCases := []struct {
		name string
		pure func(a, b *Tensor) *Tensor
		into func(dst, a, b *Tensor)
	}{
		{"Add", Add, AddInto},
		{"Sub", Sub, SubInto},
		{"Mul", Mul, MulInto},
	}
	for _, tc := range binCases {
		for _, rhs := range []*Tensor{b, s} {
			want := tc.pure(a, rhs)
			dst := New(6, 5)
			tc.into(dst, a, rhs)
			if !AllClose(dst, want, 0, 0) {
				t.Errorf("%sInto(fresh) != %s", tc.name, tc.name)
			}
			inPlace := a.Clone()
			tc.into(inPlace, inPlace, rhs)
			if !AllClose(inPlace, want, 0, 0) {
				t.Errorf("%sInto(in place) != %s", tc.name, tc.name)
			}
		}
		// Scalar on the left broadcasts too.
		want := tc.pure(s, b)
		dst := New(6, 5)
		tc.into(dst, s, b)
		if !AllClose(dst, want, 0, 0) {
			t.Errorf("%sInto(scalar lhs) != %s", tc.name, tc.name)
		}
	}

	unaryCases := []struct {
		name string
		pure func(*Tensor) *Tensor
		into func(dst, a *Tensor)
	}{
		{"ReLU", ReLU, ReLUInto},
		{"ReLUMask", ReLUMask, ReLUMaskInto},
		{"Softmax", Softmax, SoftmaxInto},
	}
	for _, tc := range unaryCases {
		want := tc.pure(a)
		dst := New(6, 5)
		tc.into(dst, a)
		if !AllClose(dst, want, 0, 0) {
			t.Errorf("%sInto(fresh) != %s", tc.name, tc.name)
		}
		inPlace := a.Clone()
		tc.into(inPlace, inPlace)
		if !AllClose(inPlace, want, 0, 0) {
			t.Errorf("%sInto(in place) != %s", tc.name, tc.name)
		}
	}

	// ScaleInto.
	want := Scale(a, 2.5)
	dst := New(6, 5)
	ScaleInto(dst, a, 2.5)
	if !AllClose(dst, want, 0, 0) {
		t.Error("ScaleInto != Scale")
	}
	inPlace := a.Clone()
	ScaleInto(inPlace, inPlace, 2.5)
	if !AllClose(inPlace, want, 0, 0) {
		t.Error("ScaleInto in place != Scale")
	}

	// CrossEntropyGradInto, aliasing the logits.
	targets := rnd(r, 6, 5)
	wantG := CrossEntropyGrad(a, targets)
	g := a.Clone()
	CrossEntropyGradInto(g, g, targets)
	if !AllClose(g, wantG, 1e-12, 1e-12) {
		t.Error("CrossEntropyGradInto in place != CrossEntropyGrad")
	}

	// TransposeInto / SumAxis0Into over scratch garbage.
	tr := GetScratchShaped(5, 6)
	TransposeInto(tr, a)
	if !AllClose(tr, Transpose(a), 0, 0) {
		t.Error("TransposeInto != Transpose")
	}
	sa := GetScratchShaped(5)
	SumAxis0Into(sa, a)
	if !AllClose(sa, SumAxis0(a), 1e-12, 1e-12) {
		t.Error("SumAxis0Into != SumAxis0")
	}
}

// TestMatMulKernels checks MatMul against a naive reference over the
// benchmark size range.
func TestMatMulKernels(t *testing.T) {
	naive := func(a, b *Tensor) *Tensor {
		m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
		out := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				out.Set(s, i, j)
			}
		}
		return out
	}
	r := rand.New(rand.NewSource(11))
	for _, size := range []int{3, 17, 64, 129, 256} {
		a := rnd(r, size, size)
		b := rnd(r, size, size)
		want := naive(a, b)
		if got := MatMul(a, b); !AllClose(got, want, 1e-9, 1e-9) {
			t.Fatalf("MatMul(%d) mismatch", size)
		}
	}
}

// TestScratchPoolReuse exercises GetScratch/Recycle from many goroutines (run
// under -race) and checks shape plumbing and reuse invariants.
func TestScratchPoolReuse(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 64 + (w*37+i*13)%1000
				s := GetScratch(n)
				if s.Size() != n || s.Dim(0) != n {
					t.Errorf("GetScratch(%d) has shape %v", n, s.Shape())
					return
				}
				s.Data()[0] = float64(w) // owner may mutate scratch
				sh := GetScratchShaped(4, n)
				if sh.Size() != 4*n {
					t.Errorf("GetScratchShaped(4,%d) has %d elements", n, sh.Size())
					return
				}
				z := GetScratchZero(n)
				for _, v := range z.Data() {
					if v != 0 {
						t.Error("GetScratchZero returned dirty storage")
						return
					}
				}
				z.Data()[n-1] = 1
				Recycle(s)
				Recycle(sh)
				Recycle(z)
			}
		}(w)
	}
	wg.Wait()
}

// TestLargeScratchIsSharedAndAged pins the large buckets' list: a buffer
// recycled on one goroutine is the next Get of its bucket on any other, most
// recent first, for every P sees one list; it lives through one ageing and
// goes at the next, as a sync.Pool's buffer lives through one collection;
// and collections do the ageing.
func TestLargeScratchIsSharedAndAged(t *testing.T) {
	const n = 1 << minSharedBits
	first, second := GetScratch(n), GetScratch(n)
	Recycle(first)
	Recycle(second)
	got := make(chan *Tensor, 2)
	go func() { got <- GetScratch(n); got <- GetScratch(n) }()
	if a, b := <-got, <-got; a != second || b != first {
		t.Fatal("another goroutine's Gets did not take the recycled buffers, most recent first")
	}
	held := func(x *Tensor) bool {
		l := &sharedFree[minSharedBits]
		l.mu.Lock()
		defer l.mu.Unlock()
		return slices.Contains(l.bufs, x) || slices.Contains(l.victim, x)
	}
	Recycle(first)
	ageShared()
	if !held(first) {
		t.Fatal("a buffer went at its first ageing")
	}
	ageShared()
	if held(first) {
		t.Fatal("a buffer outlived its second ageing")
	}
	Recycle(second)
	for range 100 {
		runtime.GC()
		time.Sleep(time.Millisecond) // the cleanup that ages runs after the collection
		if !held(second) {
			return
		}
	}
	t.Fatal("a hundred collections did not age the list twice")
}

// TestReshapeViewOfScratch checks the documented aliasing contract: a view
// and its base share storage, and a Clone breaks the sharing.
func TestReshapeViewOfScratch(t *testing.T) {
	base := GetScratchShaped(2, 6)
	base.CopyFrom([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	v := Reshape(base, 3, 4)
	base.Data()[5] = 99
	if v.At(1, 1) != 99 {
		t.Fatal("Reshape view does not share storage")
	}
	c := Reshape(base, 4, 3).Clone()
	base.Data()[5] = -1
	if c.Data()[5] != 99 {
		t.Fatal("a Clone of a Reshape view shares storage")
	}
	Recycle(base)
}

// TestReLUAndTransposeMatchOldLoops holds the branch-free ReLU loops and the
// tiled transpose to the loops they replaced, bit for bit: both are pure
// selects and copies, so nothing may differ — including NaN (not > 0, so 0),
// both zeros (+0 out), infinities and subnormals, and transposes whose edges
// are not a multiple of the tile.
func TestReLUAndTransposeMatchOldLoops(t *testing.T) {
	oldReLU := func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}
	oldMask := func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	}
	r := rand.New(rand.NewSource(3))
	a := rnd(r, 37, 29)
	copy(a.data, []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Float64frombits(0xFFF8000000000000),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64})
	relu, mask := New(37, 29), New(37, 29)
	ReLUInto(relu, a)
	ReLUMaskInto(mask, a)
	for i, x := range a.data {
		if got, want := relu.data[i], oldReLU(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ReLUInto(%v) = %v (%x), old loop %v", x, got, math.Float64bits(got), want)
		}
		if got, want := mask.data[i], oldMask(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ReLUMaskInto(%v) = %v (%x), old loop %v", x, got, math.Float64bits(got), want)
		}
	}

	for _, s := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {1, 40}, {40, 1}, {15, 17}, {16, 16}, {33, 31}, {128, 256}, {70, 3}} {
		m, n := s[0], s[1]
		src := rnd(r, m, n)
		got := GetScratchShaped(n, m)
		for i := range got.data {
			got.data[i] = math.NaN() // every element must be overwritten
		}
		TransposeInto(got, src)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if g, w := got.data[j*m+i], src.data[i*n+j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("TransposeInto %dx%d: dst[%d][%d] = %v, want %v", m, n, j, i, g, w)
				}
			}
		}
		Recycle(got)
	}
}
