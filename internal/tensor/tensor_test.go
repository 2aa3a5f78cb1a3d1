package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Rank() != 3 || a.Size() != 24 {
		t.Fatalf("rank=%d size=%d", a.Rank(), a.Size())
	}
	if !ShapeEq(a.Shape(), []int{2, 3, 4}) {
		t.Fatalf("shape=%v", a.Shape())
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Size() != 1 || s.Data()[0] != 3.5 {
		t.Fatalf("bad scalar %v", s)
	}
}

func TestFromSliceErrors(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("want error on element count mismatch")
	}
	a, err := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 {
		t.Fatalf("At(1,0)=%v", a.At(1, 0))
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	a := New(3, 2)
	a.Set(7, 2, 1)
	if a.At(2, 1) != 7 {
		t.Fatalf("got %v", a.At(2, 1))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestAddSubMul(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Data(); got[0] != 5 || got[3] != 5 {
		t.Fatalf("add=%v", got)
	}
	if got := Sub(a, b).Data(); got[0] != -3 || got[3] != 3 {
		t.Fatalf("sub=%v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 6 {
		t.Fatalf("mul=%v", got)
	}
}

func TestScalarBroadcast(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	s := Scalar(10)
	if got := Add(a, s).Data(); got[0] != 11 || got[1] != 12 {
		t.Fatalf("a+s=%v", got)
	}
	if got := Add(s, a).Data(); got[0] != 11 {
		t.Fatalf("s+a=%v", got)
	}
	if got := Sub(s, a).Data(); got[1] != 8 {
		t.Fatalf("s-a=%v", got)
	}
}

func TestZipShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Add(New(2), New(3))
}

func TestMatMul(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := MustFromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !AllClose(c, want, 0, 0) {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := rng.Normal(1, 4, 4)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !AllClose(MatMul(a, eye), a, 1e-12, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if !ShapeEq(at.Shape(), []int{3, 2}) || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := 1 + int(seed%5)
		n := 1 + int((seed/7)%6)
		a := rng.Normal(1, m, n)
		return AllClose(Transpose(Transpose(a)), a, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReshape(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Reshape(a, 3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape data moved: %v", b)
	}
	// Reshape is a zero-copy view: it shares the input's storage.
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape should alias its input")
	}
}

func TestSumAndSumAxis0(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if Sum(a).Data()[0] != 21 {
		t.Fatalf("sum=%v", Sum(a))
	}
	s0 := SumAxis0(a)
	want := MustFromSlice([]float64{5, 7, 9}, 3)
	if !AllClose(s0, want, 0, 0) {
		t.Fatalf("sumaxis0=%v", s0)
	}
}

func TestSliceAndStack(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	parts := make([]*Tensor, 3)
	for i := range parts {
		parts[i] = Reshape(ViewRange0(a, i, i+1), 2)
	}
	if !AllClose(parts[1], MustFromSlice([]float64{3, 4}, 2), 0, 0) {
		t.Fatalf("slice=%v", parts[1])
	}
	back := Stack0(parts)
	if !AllClose(back, a, 0, 0) {
		t.Fatalf("stack(slices) != original: %v", back)
	}
}

func TestReLUAndMask(t *testing.T) {
	a := MustFromSlice([]float64{-1, 0, 2}, 3)
	r := ReLU(a)
	if r.At(0) != 0 || r.At(1) != 0 || r.At(2) != 2 {
		t.Fatalf("relu=%v", r)
	}
	m := ReLUMask(a)
	if m.At(0) != 0 || m.At(2) != 1 {
		t.Fatalf("mask=%v", m)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(7)
	a := rng.Normal(3, 5, 8)
	p := Softmax(a)
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 8; j++ {
			s += p.At(i, j)
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := NewRNG(9)
	a := rng.Normal(1, 3, 4)
	b := Add(a, Scalar(100))
	if !AllClose(Softmax(a), Softmax(b), 1e-9, 1e-12) {
		t.Fatal("softmax not shift invariant")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits, one-hot targets: loss = log(K).
	logits := New(4, 3)
	targets := New(4, 3)
	for i := 0; i < 4; i++ {
		targets.Set(1, i, i%3)
	}
	l := CrossEntropy(logits, targets)
	if math.Abs(l.Data()[0]-math.Log(3)) > 1e-9 {
		t.Fatalf("loss=%v want log 3", l.Data()[0])
	}
}

func TestCrossEntropyGradMatchesFiniteDiff(t *testing.T) {
	rng := NewRNG(3)
	logits := rng.Normal(1, 2, 3)
	targets := rng.OneHotBatch(2, 3)
	g := CrossEntropyGrad(logits, targets)
	eps := 1e-6
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			lp := logits.Clone()
			lp.Set(lp.At(i, j)+eps, i, j)
			lm := logits.Clone()
			lm.Set(lm.At(i, j)-eps, i, j)
			fd := (CrossEntropy(lp, targets).Data()[0] - CrossEntropy(lm, targets).Data()[0]) / (2 * eps)
			if math.Abs(fd-g.At(i, j)) > 1e-5 {
				t.Fatalf("grad[%d,%d]=%v fd=%v", i, j, g.At(i, j), fd)
			}
		}
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := MustFromSlice([]float64{1, 2.0001}, 2)
	if AllClose(a, b, 0, 1e-6) {
		t.Fatal("should differ at atol 1e-6")
	}
	if !AllClose(a, b, 0, 1e-3) {
		t.Fatal("should match at atol 1e-3")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0001) > 1e-12 {
		t.Fatalf("maxabsdiff=%v", d)
	}
	if !math.IsInf(MaxAbsDiff(a, New(3)), 1) {
		t.Fatal("shape mismatch should be +Inf")
	}
	nan := MustFromSlice([]float64{1, math.NaN()}, 2)
	if AllClose(nan, nan, 1, 1) {
		t.Fatal("a NaN should be close to nothing")
	}
	inf := MustFromSlice([]float64{math.Inf(-1), math.Inf(1)}, 2)
	if !AllClose(inf, inf, 0, 0) {
		t.Fatal("equal infinities should be close")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Normal(1, 10)
	b := NewRNG(42).Normal(1, 10)
	if !AllClose(a, b, 0, 0) {
		t.Fatal("same seed should reproduce")
	}
	c := NewRNG(43).Normal(1, 10)
	if AllClose(a, c, 0, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGSkipLandsWhereDrawingDoes(t *testing.T) {
	drawn, skipped := NewRNG(9), NewRNG(9)
	drawn.Xavier(7, 5)
	skipped.Skip(7 * 5)
	drawn.Normal(1, 3, 3)
	skipped.SkipNorm(3 * 3)
	drawn.OneHotBatch(6, 4)
	skipped.Skip(6)
	if a, b := drawn.Float64(), skipped.Float64(); a != b {
		t.Fatalf("after skipping, the next draw is %v; after drawing, %v", b, a)
	}
}

func TestRNGUniformRange(t *testing.T) {
	u := NewRNG(5).Uniform(-2, 3, 1000)
	for _, v := range u.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestOneHotBatch(t *testing.T) {
	oh := NewRNG(11).OneHotBatch(20, 7)
	for i := 0; i < 20; i++ {
		s := 0.0
		for j := 0; j < 7; j++ {
			v := oh.At(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("non-binary one-hot value %v", v)
			}
			s += v
		}
		if s != 1 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

// Property: (A+B)+C == A+(B+C) and matmul distributes over addition.
func TestMatMulDistributes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 2+int(seed%3), 2+int((seed/3)%3), 2+int((seed/9)%3)
		a := rng.Normal(1, m, k)
		b := rng.Normal(1, k, n)
		c := rng.Normal(1, k, n)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return AllClose(lhs, rhs, 1e-9, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose(A B) == transpose(B) transpose(A).
func TestMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 2+int(seed%4), 2+int((seed/5)%4), 2+int((seed/25)%4)
		a := rng.Normal(1, m, k)
		b := rng.Normal(1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return AllClose(lhs, rhs, 1e-9, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}
