package trace

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestTraceBuildsVerifiedGraph(t *testing.T) {
	g, err := Trace("f", func(b *Builder) []*ir.Value {
		x := b.Input("x", 2, 4)
		w := b.Input("w", 4, 3)
		h := b.ReLU(b.MatMul(x, w))
		h = b.PipelineYield(h)
		return []*ir.Value{b.Sum(h)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if fwd, _ := g.YieldBoundaries(); len(fwd)+1 != 2 {
		t.Fatalf("stages=%d", len(fwd)+1)
	}
}

func TestTraceConvertsPanicToError(t *testing.T) {
	_, err := Trace("bad", func(b *Builder) []*ir.Value {
		x := b.Input("x", 2, 3)
		y := b.Input("y", 2, 3)
		return []*ir.Value{b.MatMul(x, y)} // inner dims mismatch
	})
	if err == nil || !strings.Contains(err.Error(), "matmul") {
		t.Fatalf("want matmul trace error, got %v", err)
	}
}

func TestYieldNumbering(t *testing.T) {
	g, err := Trace("multi", func(b *Builder) []*ir.Value {
		x := b.Input("x", 2, 2)
		h := b.PipelineYield(b.ReLU(x))
		h = b.PipelineYield(b.Tanh(h))
		if b.YieldCount() != 2 {
			t.Fatalf("yield count %d", b.YieldCount())
		}
		return []*ir.Value{b.Sum(h)}
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, _ := g.YieldBoundaries()
	if len(fwd) != 2 {
		t.Fatalf("fwd yields %d", len(fwd))
	}
	if g.Eqns[fwd[0]].Attrs.Stage != 1 || g.Eqns[fwd[1]].Attrs.Stage != 2 {
		t.Fatal("yield stage attrs not sequential")
	}
}

func TestBuilderHelpers(t *testing.T) {
	g, err := Trace("helpers", func(b *Builder) []*ir.Value {
		x := b.Input("x", 2, 3)
		y := b.Input("y", 2, 3)
		v := b.Add(x, y)
		v = b.Sub(v, x)
		v = b.Mul(v, y)
		v = b.Scale(v, 0.5)
		v2 := b.Reshape(v, 3, 2)
		v2 = b.Transpose(v2)
		sm := b.Softmax(v2)
		_ = sm
		z := b.Zeros(2, 3)
		v = b.Add(v, z)
		s0 := b.SumAxis0(v)
		_ = s0
		return []*ir.Value{b.CrossEntropy(v, y)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

// YieldCount reports how many forward yields were traced.
func (b *Builder) YieldCount() int { return b.yieldCount }
