package tensor

import "testing"

// TestViewRange0AliasesWithoutCopy pins the zero-copy contract: a row view
// reads the parent's storage in place (writes to the parent are visible) and
// reports the sliced shape.
func TestViewRange0AliasesWithoutCopy(t *testing.T) {
	a := MustFromSlice([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 4, 2)
	v := ViewRange0(a, 1, 3)
	if !ShapeEq(v.Shape(), []int{2, 2}) {
		t.Fatalf("view shape %v, want [2 2]", v.Shape())
	}
	if v.At(0, 0) != 2 || v.At(1, 1) != 5 {
		t.Fatalf("view contents wrong: %v", v)
	}
	a.Set(42, 1, 0)
	if v.At(0, 0) != 42 {
		t.Fatalf("view did not observe parent write: zero-copy aliasing broken")
	}
	if !v.Borrowed() {
		t.Fatalf("row view must be marked borrowed")
	}
}

// TestBorrowedViewRefusesMutation locks every mutating path out of borrowed
// views: destination-passing kernels, CopyFrom, and pool recycling.
func TestBorrowedViewRefusesMutation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a borrowed view did not panic", name)
			}
		}()
		f()
	}
	fresh := func() (*Tensor, *Tensor) {
		base := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
		return base, ViewRange0(base, 0, 2)
	}
	_, v := fresh()
	x := Ones(2, 2)
	mustPanic("AddInto", func() { AddInto(v, x, x) })
	mustPanic("MulInto", func() { MulInto(v, x, x) })
	mustPanic("ScaleInto", func() { ScaleInto(v, x, 2) })
	mustPanic("ReLUInto", func() { ReLUInto(v, x) })
	mustPanic("MatMulInto", func() { MatMulInto(v, x, x) })
	mustPanic("TransposeInto", func() { TransposeInto(v, x) })
	mustPanic("CopyFrom", func() { v.CopyFrom([]float64{9, 9, 9, 9}) })

	// A reshape of a borrowed view stays borrowed: it is the same storage.
	base, v2 := fresh()
	r := Reshape(v2, 4)
	if !r.Borrowed() {
		t.Fatalf("Reshape of a borrowed view must stay borrowed")
	}
	mustPanic("ScaleInto-through-reshape", func() { ScaleInto(r, Ones(4), 2) })

	// Clone detaches: the copy is mutable and writes don't reach the parent.
	c := v2.Clone()
	if c.Borrowed() {
		t.Fatalf("Clone of a borrowed view must be independently owned")
	}
	ScaleInto(c, c, 10)
	if base.At(0, 0) != 1 {
		t.Fatalf("mutating a clone reached the parent")
	}
}

// TestRecycleIgnoresBorrowedViews proves a recycled view's storage never
// re-enters the scratch pool: the next same-bucket GetScratch must not hand
// out storage aliasing the view's parent.
func TestRecycleIgnoresBorrowedViews(t *testing.T) {
	base := New(4, 32) // rows of 32: a 2-row view is a 64-element bucket
	v := ViewRange0(base, 0, 2)
	Recycle(v)
	s := GetScratch(64)
	for i := range s.Data() {
		s.Data()[i] = 777
	}
	for i, got := range base.Data() {
		if got != 0 {
			t.Fatalf("scratch write reached the view's parent at %d: borrowed storage was pooled", i)
		}
	}
	Recycle(s)
}
