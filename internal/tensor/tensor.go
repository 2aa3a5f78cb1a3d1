// Package tensor implements a small dense float64 tensor library used as the
// numeric substrate of the JaxPP reproduction. It plays the role of the XLA
// CPU backend: real math at laptop scale so that compiler and runtime
// correctness (gradient equivalence across pipeline schedules) can be tested
// against ground truth.
//
// Tensors are immutable by convention: operations return fresh tensors and
// never alias their inputs' backing storage unless documented (Reshape).
// Two documented exceptions relax the convention for hot paths: scratch
// tensors from the buffer pool (pool.go) are exclusively owned and mutable
// until ownership transfers, and the destination-passing *Into kernels
// (ops.go) write into caller-owned storage.
//
// Every kernel runs on the goroutine that calls it. Parallelism lives one
// level up, in the actors: a goroutine per actor in one process, a process
// per rank across processes.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float64 array with an explicit shape.
type Tensor struct {
	shape []int
	data  []float64
	// borrowed marks a tensor whose storage belongs to someone else (a batch
	// row view handed to the runtime, for example). Borrowed tensors are
	// readable like any other, but destination-passing kernels refuse to write
	// through them and Recycle refuses to pool their storage — the two paths
	// that could otherwise corrupt the owner's data.
	borrowed bool
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{shape: cloneShape(shape), data: make([]float64, NumElements(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The data slice is
// copied so the caller keeps ownership.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	if NumElements(shape) != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, got %d", shape, NumElements(shape), len(data))
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Tensor{shape: cloneShape(shape), data: d}, nil
}

// MustFromSlice is FromSlice but panics on shape mismatch. For tests and
// literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{shape: []int{}, data: []float64{v}}
}

// Full returns a tensor of the given shape filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// NumElements returns the product of the dims in shape.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func cloneShape(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneShape(t.shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the backing slice. Callers must not mutate it; it is exposed
// for efficient read-only access (serialization, comparison).
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy. The copy is independently owned: cloning a
// borrowed view yields an ordinary mutable tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: cloneShape(t.shape), data: d}
}

// Borrowed reports whether the tensor is a borrowed view of caller-owned
// storage (see ViewRange0).
func (t *Tensor) Borrowed() bool { return t.borrowed }

// HasShape reports whether the tensor's shape equals shape. Unlike
// ShapeEq(t.Shape(), shape) it performs no allocation, so hot-path
// validation can use it freely.
func (t *Tensor) HasShape(shape []int) bool { return ShapeEq(t.shape, shape) }

// View wraps data in a tensor of the given shape without copying. The tensor
// aliases data: the caller is responsible for the resulting sharing (used by
// zero-copy collective chunks and internal staging).
func View(data []float64, shape ...int) *Tensor {
	if NumElements(shape) != len(data) {
		panic(fmt.Sprintf("tensor: View shape %v wants %d elements, got %d", shape, NumElements(shape), len(data)))
	}
	return &Tensor{shape: cloneShape(shape), data: data}
}

// CopyFrom copies src into the tensor's storage. Lengths must match. It is
// the write half of Data() for owners of mutable (scratch) tensors.
func (t *Tensor) CopyFrom(src []float64) {
	if len(src) != len(t.data) {
		panic(fmt.Sprintf("tensor: CopyFrom of %d elements into %d", len(src), len(t.data)))
	}
	if t.borrowed {
		panic("tensor: CopyFrom into a borrowed view")
	}
	copy(t.data, src)
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	return ShapeEq(a.shape, b.shape)
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	for i := 0; i < 8; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%g", t.data[i])
	}
	fmt.Fprintf(&b, " ... %d elements]", t.Size())
	return b.String()
}

// AllClose reports whether a and b have the same shape and all elements are
// within atol + rtol*|b| of each other. Equal elements are close, infinities
// included; a NaN is close to nothing, not even a NaN.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i, x := range a.data {
		y := b.data[i]
		if x != y && !(math.Abs(x-y) <= atol+rtol*math.Abs(y)) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference, or +Inf on
// shape mismatch.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a.data {
		d := math.Abs(a.data[i] - b.data[i])
		if d > m {
			m = d
		}
	}
	return m
}
