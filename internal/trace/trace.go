// Package trace provides the tracing builder that turns a Go closure into an
// IR graph — the analogue of calling a Python function under jax.make_jaxpr.
// Model code receives a *Builder and symbolic *ir.Value handles; arithmetic
// on the handles records equations.
package trace

import (
	"fmt"

	"repro/internal/ir"
)

// Builder records equations into an underlying IR graph. All emit methods
// panic on shape errors, mirroring how JAX tracing aborts with a TypeError;
// Trace converts the panic into an error for callers.
type Builder struct {
	g          *ir.Graph
	yieldCount int
}

// Trace runs fn with a fresh builder. fn declares inputs via Input and
// returns the output values. The resulting graph is verified before return.
func Trace(name string, fn func(b *Builder) []*ir.Value) (g *ir.Graph, err error) {
	b := &Builder{g: ir.NewGraph(name)}
	defer func() {
		if r := recover(); r != nil {
			g = nil
			err = fmt.Errorf("trace: %v", r)
		}
	}()
	outs := fn(b)
	b.g.SetOutputs(outs...)
	if verr := b.g.Verify(); verr != nil {
		return nil, verr
	}
	return b.g, nil
}

// Graph exposes the graph under construction (for advanced callers).
func (b *Builder) Graph() *ir.Graph { return b.g }

// Input declares a graph input of the given shape.
func (b *Builder) Input(name string, shape ...int) *ir.Value {
	return b.g.AddInput(shape, name)
}

func (b *Builder) emit(op ir.Op, attrs ir.Attrs, ins ...*ir.Value) *ir.Value {
	v, err := b.g.Emit(op, attrs, ins...)
	if err != nil {
		panic(err)
	}
	return v
}

// MatMul records a matrix product.
func (b *Builder) MatMul(x, y *ir.Value) *ir.Value { return b.emit(ir.OpMatMul, ir.Attrs{}, x, y) }

// Add records an elementwise sum (scalar broadcast allowed).
func (b *Builder) Add(x, y *ir.Value) *ir.Value { return b.emit(ir.OpAdd, ir.Attrs{}, x, y) }

// Sub records an elementwise difference.
func (b *Builder) Sub(x, y *ir.Value) *ir.Value { return b.emit(ir.OpSub, ir.Attrs{}, x, y) }

// Mul records an elementwise product.
func (b *Builder) Mul(x, y *ir.Value) *ir.Value { return b.emit(ir.OpMul, ir.Attrs{}, x, y) }

// Scale records multiplication by a compile-time constant.
func (b *Builder) Scale(x *ir.Value, f float64) *ir.Value {
	return b.emit(ir.OpScale, ir.Attrs{Factor: f}, x)
}

// ReLU records a rectified linear unit.
func (b *Builder) ReLU(x *ir.Value) *ir.Value { return b.emit(ir.OpReLU, ir.Attrs{}, x) }

// Tanh records a tanh activation.
func (b *Builder) Tanh(x *ir.Value) *ir.Value { return b.emit(ir.OpTanh, ir.Attrs{}, x) }

// Transpose records a rank-2 transpose.
func (b *Builder) Transpose(x *ir.Value) *ir.Value { return b.emit(ir.OpTranspose, ir.Attrs{}, x) }

// Reshape records a reshape to the given shape.
func (b *Builder) Reshape(x *ir.Value, shape ...int) *ir.Value {
	return b.emit(ir.OpReshape, ir.Attrs{Shape: shape}, x)
}

// Sum records a full reduction to a scalar.
func (b *Builder) Sum(x *ir.Value) *ir.Value { return b.emit(ir.OpSum, ir.Attrs{}, x) }

// SumAxis0 records a reduction over the leading axis.
func (b *Builder) SumAxis0(x *ir.Value) *ir.Value { return b.emit(ir.OpSumAxis0, ir.Attrs{}, x) }

// Softmax records a row-wise softmax.
func (b *Builder) Softmax(x *ir.Value) *ir.Value { return b.emit(ir.OpSoftmax, ir.Attrs{}, x) }

// CrossEntropy records the fused mean softmax-cross-entropy loss.
func (b *Builder) CrossEntropy(logits, targets *ir.Value) *ir.Value {
	return b.emit(ir.OpXent, ir.Attrs{}, logits, targets)
}

// Zeros records a zero constant of the given shape.
func (b *Builder) Zeros(shape ...int) *ir.Value {
	return b.emit(ir.OpZeros, ir.Attrs{Shape: shape})
}

// PipelineYield marks the end of the current pipeline stage, exactly like
// jaxpp.pipeline_yield: it is an identity on the value, and every computation
// the result transitively feeds belongs to a later stage.
func (b *Builder) PipelineYield(x *ir.Value) *ir.Value {
	b.yieldCount++
	return b.emit(ir.OpYield, ir.Attrs{Stage: b.yieldCount}, x)
}
