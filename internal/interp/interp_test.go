package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/tensor"
)

func TestEvalSimpleChain(t *testing.T) {
	g := ir.NewGraph("chain")
	x := g.AddInput([]int{2, 2}, "x")
	w := g.AddInput([]int{2, 2}, "w")
	h := g.MustEmit(ir.OpMatMul, ir.Attrs{}, x, w)
	h = g.MustEmit(ir.OpReLU, ir.Attrs{}, h)
	g.SetOutputs(h)
	xt := tensor.MustFromSlice([]float64{1, -1, 2, 0}, 2, 2)
	wt := tensor.MustFromSlice([]float64{1, 0, 0, 1}, 2, 2)
	outs, err := Eval(g, []*tensor.Tensor{xt, wt})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float64{1, 0, 2, 0}, 2, 2)
	if !tensor.AllClose(outs[0], want, 0, 0) {
		t.Fatalf("got %v", outs[0])
	}
}

func TestEvalInputCountMismatch(t *testing.T) {
	g := ir.NewGraph("g")
	g.AddInput([]int{2}, "x")
	g.SetOutputs(g.Inputs[0])
	if _, err := Eval(g, nil); err == nil {
		t.Fatal("want input count error")
	}
}

func TestEvalInputShapeMismatch(t *testing.T) {
	g := ir.NewGraph("g")
	x := g.AddInput([]int{2}, "x")
	g.SetOutputs(x)
	if _, err := Eval(g, []*tensor.Tensor{tensor.New(3)}); err == nil {
		t.Fatal("want input shape error")
	}
}

func TestApplyAllOps(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := tensor.MustFromSlice([]float64{5, 6, 7, 8}, 2, 2)
	s := tensor.Scalar(2)
	onehot := tensor.MustFromSlice([]float64{1, 0, 0, 1}, 2, 2)
	cases := []struct {
		op    ir.Op
		attrs ir.Attrs
		args  []*tensor.Tensor
		check func(*tensor.Tensor) bool
	}{
		{ir.OpMatMul, ir.Attrs{}, []*tensor.Tensor{a, b}, func(t *tensor.Tensor) bool { return t.At(0, 0) == 19 }},
		{ir.OpAdd, ir.Attrs{}, []*tensor.Tensor{a, b}, func(t *tensor.Tensor) bool { return t.At(0, 0) == 6 }},
		{ir.OpSub, ir.Attrs{}, []*tensor.Tensor{b, a}, func(t *tensor.Tensor) bool { return t.At(0, 0) == 4 }},
		{ir.OpMul, ir.Attrs{}, []*tensor.Tensor{a, b}, func(t *tensor.Tensor) bool { return t.At(1, 1) == 32 }},
		{ir.OpScale, ir.Attrs{Factor: 3}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.At(0, 1) == 6 }},
		{ir.OpReLU, ir.Attrs{}, []*tensor.Tensor{tensor.MustFromSlice([]float64{-1, 1}, 2)}, func(t *tensor.Tensor) bool { return t.At(0) == 0 && t.At(1) == 1 }},
		{ir.OpReLUMask, ir.Attrs{}, []*tensor.Tensor{tensor.MustFromSlice([]float64{-1, 1}, 2)}, func(t *tensor.Tensor) bool { return t.At(0) == 0 && t.At(1) == 1 }},
		{ir.OpTranspose, ir.Attrs{}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.At(0, 1) == 3 }},
		{ir.OpReshape, ir.Attrs{Shape: []int{4}}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.Rank() == 1 }},
		{ir.OpSum, ir.Attrs{}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.Data()[0] == 10 }},
		{ir.OpSumAxis0, ir.Attrs{}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.At(0) == 4 }},
		{ir.OpBroadcast0, ir.Attrs{N: 3}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.Rank() == 3 && t.Dim(0) == 3 }},
		{ir.OpBroadcastS, ir.Attrs{Shape: []int{2, 2}}, []*tensor.Tensor{s}, func(t *tensor.Tensor) bool { return t.At(1, 1) == 2 }},
		{ir.OpSoftmax, ir.Attrs{}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.At(0, 0) < t.At(0, 1) }},
		{ir.OpXent, ir.Attrs{}, []*tensor.Tensor{a, onehot}, func(t *tensor.Tensor) bool { return t.Data()[0] > 0 }},
		{ir.OpXentGrad, ir.Attrs{}, []*tensor.Tensor{a, onehot}, func(t *tensor.Tensor) bool { return t.Rank() == 2 }},
		{ir.OpZeros, ir.Attrs{Shape: []int{3}}, nil, func(t *tensor.Tensor) bool { return t.At(1) == 0 }},
		{ir.OpConst, ir.Attrs{Shape: []int{3}, Factor: 7}, nil, func(t *tensor.Tensor) bool { return t.At(2) == 7 }},
		{ir.OpYield, ir.Attrs{Stage: 1}, []*tensor.Tensor{a}, func(t *tensor.Tensor) bool { return t.At(0, 0) == 1 }},
		{ir.OpTanh, ir.Attrs{}, []*tensor.Tensor{tensor.New(2)}, func(t *tensor.Tensor) bool { return t.At(0) == 0 }},
	}
	for _, c := range cases {
		out, err := Apply(c.op, c.attrs, c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if !c.check(out) {
			t.Fatalf("%s: unexpected result %v", c.op, out)
		}
	}
}

func TestApplyUnknownOp(t *testing.T) {
	if _, err := Apply(ir.Op("nope"), ir.Attrs{}, nil); err == nil {
		t.Fatal("want error")
	}
}

func TestYieldDoesNotAlias(t *testing.T) {
	a := tensor.MustFromSlice([]float64{1, 2}, 2)
	out, err := Apply(ir.OpYield, ir.Attrs{}, []*tensor.Tensor{a})
	if err != nil {
		t.Fatal(err)
	}
	out.Data()[0] = 99
	if a.At(0) == 99 {
		t.Fatal("yield aliases its input")
	}
}
