package ir

import (
	"strings"
	"testing"
)

func buildFFN(t *testing.T) (*Graph, *Value, *Value, *Value, *Value) {
	t.Helper()
	g := NewGraph("ffn")
	x := g.AddInput([]int{4, 8}, "x")
	w1 := g.AddInput([]int{8, 16}, "w1")
	w2 := g.AddInput([]int{16, 8}, "w2")
	h, err := g.Emit(OpMatMul, Attrs{}, x, w1)
	if err != nil {
		t.Fatal(err)
	}
	h = g.MustEmit(OpReLU, Attrs{}, h)
	h = g.MustEmit(OpYield, Attrs{Stage: 1}, h)
	out := g.MustEmit(OpMatMul, Attrs{}, h, w2)
	g.SetOutputs(out)
	return g, x, w1, w2, out
}

func TestEmitShapeInference(t *testing.T) {
	g, _, _, _, out := buildFFN(t)
	if out.Shape[0] != 4 || out.Shape[1] != 8 {
		t.Fatalf("output shape %v", out.Shape)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitRejectsBadShapes(t *testing.T) {
	g := NewGraph("bad")
	a := g.AddInput([]int{2, 3}, "a")
	b := g.AddInput([]int{2, 3}, "b")
	if _, err := g.Emit(OpMatMul, Attrs{}, a, b); err == nil {
		t.Fatal("want matmul shape error")
	}
	if _, err := g.Emit(OpAdd, Attrs{}, a, g.AddInput([]int{3, 2}, "c")); err == nil {
		t.Fatal("want add shape error")
	}
	if _, err := g.Emit(OpReshape, Attrs{Shape: []int{7}}, a); err == nil {
		t.Fatal("want reshape element-count error")
	}
}

func TestScalarBroadcastShapes(t *testing.T) {
	g := NewGraph("bc")
	a := g.AddInput([]int{2, 3}, "a")
	s := g.AddInput([]int{}, "s")
	v, err := g.Emit(OpAdd, Attrs{}, a, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Shape) != 2 {
		t.Fatalf("scalar broadcast lost shape: %v", v.Shape)
	}
}

func TestVerifyCatchesUndefinedUse(t *testing.T) {
	g := NewGraph("broken")
	a := g.AddInput([]int{2}, "a")
	phantom := &Value{ID: 999, Shape: []int{2}}
	g.Eqns = append(g.Eqns, &Equation{Op: OpAdd, Inputs: []*Value{a, phantom}, Outputs: []*Value{g.NewValue([]int{2}, "")}})
	if err := g.Verify(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("want undefined-use error, got %v", err)
	}
}

func TestVerifyCatchesDoubleDefinition(t *testing.T) {
	g := NewGraph("dup")
	a := g.AddInput([]int{2}, "a")
	v := g.MustEmit(OpReLU, Attrs{}, a)
	g.Eqns = append(g.Eqns, &Equation{Op: OpReLU, Inputs: []*Value{a}, Outputs: []*Value{v}})
	if err := g.Verify(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want double-definition error, got %v", err)
	}
}

func TestVerifyCatchesWrongOutputShape(t *testing.T) {
	g := NewGraph("wrongshape")
	a := g.AddInput([]int{2, 3}, "a")
	bad := g.NewValue([]int{3, 3}, "")
	g.Eqns = append(g.Eqns, &Equation{Op: OpTranspose, Inputs: []*Value{a}, Outputs: []*Value{bad}})
	g.SetOutputs(bad)
	if err := g.Verify(); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestDCE(t *testing.T) {
	g := NewGraph("dce")
	a := g.AddInput([]int{2, 2}, "a")
	used := g.MustEmit(OpReLU, Attrs{}, a)
	g.MustEmit(OpTanh, Attrs{}, a) // dead
	dead2 := g.MustEmit(OpTranspose, Attrs{}, a)
	g.MustEmit(OpReLU, Attrs{}, dead2) // dead chain
	g.SetOutputs(used)
	removed := g.DCE()
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	if len(g.Eqns) != 1 {
		t.Fatalf("left %d eqns", len(g.Eqns))
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDCEKeepsTransitiveDeps(t *testing.T) {
	g := NewGraph("dce2")
	a := g.AddInput([]int{2, 2}, "a")
	x := g.MustEmit(OpReLU, Attrs{}, a)
	y := g.MustEmit(OpTanh, Attrs{}, x)
	g.SetOutputs(y)
	if removed := g.DCE(); removed != 0 {
		t.Fatalf("removed %d live eqns", removed)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, _, _, _, _ := buildFFN(t)
	c := g.Clone()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.Eqns[0].Attrs.Factor = 99
	if g.Eqns[0].Attrs.Factor == 99 {
		t.Fatal("clone shares attrs")
	}
	c.Inputs[0].Shape[0] = 77
	if g.Inputs[0].Shape[0] == 77 {
		t.Fatal("clone shares value shapes")
	}
	if len(c.Eqns) != len(g.Eqns) {
		t.Fatal("clone eqn count differs")
	}
}

func TestProducerAndUses(t *testing.T) {
	g, x, w1, _, out := buildFFN(t)
	p := g.Producer()
	if p[x.ID] != -1 || p[w1.ID] != -1 {
		t.Fatal("inputs should have producer -1")
	}
	if p[out.ID] != len(g.Eqns)-1 {
		t.Fatalf("output producer %d", p[out.ID])
	}
	u := g.Uses()
	if len(u[out.ID]) != 1 || u[out.ID][0] != len(g.Eqns) {
		t.Fatalf("graph output should be used by sentinel index: %v", u[out.ID])
	}
	if len(u[x.ID]) != 1 {
		t.Fatalf("x uses: %v", u[x.ID])
	}
}

func TestYieldBoundariesAndNumStages(t *testing.T) {
	g, _, _, _, _ := buildFFN(t)
	fwd, bwd := g.YieldBoundaries()
	if len(fwd) != 1 || len(bwd) != 0 {
		t.Fatalf("fwd=%v bwd=%v, want one forward yield: two stages", fwd, bwd)
	}
}

func TestStringRendering(t *testing.T) {
	g, _, _, _, _ := buildFFN(t)
	s := g.String()
	for _, want := range []string{"ffn(", "matmul", "pipeline_yield", "stage=1", "return"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestInferShapeUnknownOp(t *testing.T) {
	if _, err := InferShape(Op("bogus"), Attrs{}, nil); err == nil {
		t.Fatal("want unknown-op error")
	}
}

func TestInferShapeBroadcasts(t *testing.T) {
	s, err := InferShape(OpBroadcast0, Attrs{N: 4}, [][]int{{3, 2}})
	if err != nil || s[0] != 4 || s[1] != 3 || s[2] != 2 {
		t.Fatalf("broadcast0: %v %v", s, err)
	}
	if _, err := InferShape(OpBroadcast0, Attrs{N: 0}, [][]int{{3}}); err == nil {
		t.Fatal("want error for N=0")
	}
	s, err = InferShape(OpBroadcastS, Attrs{Shape: []int{2, 2}}, [][]int{{}})
	if err != nil || len(s) != 2 {
		t.Fatalf("broadcast_s: %v %v", s, err)
	}
	if _, err := InferShape(OpBroadcastS, Attrs{Shape: []int{2}}, [][]int{{3}}); err == nil {
		t.Fatal("broadcast_s wants scalar operand")
	}
}
