// Package ir defines the typed SSA dataflow intermediate representation that
// plays the role of JAX's Jaxpr in this reproduction. A Graph is a flat list
// of Equations over immutable Values; every compiler pass in the system
// (autodiff, stage splitting, placement inference, loop commuting, task-graph
// construction) operates on this representation.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Op identifies a primitive operation.
type Op string

// The primitive op set. It is intentionally small: large models are built by
// composing these, exactly as JAX programs lower to a small HLO vocabulary.
const (
	OpMatMul     Op = "matmul"         // (m,k),(k,n) -> (m,n)
	OpAdd        Op = "add"            // elementwise; scalar broadcast allowed
	OpSub        Op = "sub"            // elementwise; scalar broadcast allowed
	OpMul        Op = "mul"            // elementwise; scalar broadcast allowed
	OpScale      Op = "scale"          // x * Attrs.Factor
	OpReLU       Op = "relu"           // max(x, 0)
	OpReLUMask   Op = "relu_mask"      // 1 where x > 0
	OpTanh       Op = "tanh"           // tanh(x)
	OpTanhGrad   Op = "tanh_grad"      // (x, dy) -> dy * (1 - tanh(x)^2)
	OpTranspose  Op = "transpose"      // rank-2 transpose
	OpReshape    Op = "reshape"        // to Attrs.Shape
	OpSum        Op = "sum"            // all elements -> scalar
	OpSumAxis0   Op = "sum_axis0"      // (d0, rest...) -> (rest...)
	OpBroadcast0 Op = "broadcast0"     // (rest...) -> (Attrs.N, rest...), repeat
	OpBroadcastS Op = "broadcast_s"    // scalar -> Attrs.Shape, filled
	OpSoftmax    Op = "softmax"        // row-wise softmax, rank 2
	OpXent       Op = "xent"           // (logits, targets) -> scalar mean loss
	OpXentGrad   Op = "xent_grad"      // (logits, targets) -> dloss/dlogits
	OpZeros      Op = "zeros"          // constant zeros of Attrs.Shape
	OpConst      Op = "const"          // constant Attrs.Factor-filled Attrs.Shape
	OpYield      Op = "pipeline_yield" // identity; marks a stage boundary
)

// Attrs carries per-equation static attributes. A struct (not a map) keeps it
// comparable, gob-friendly and cheap to clone.
type Attrs struct {
	Shape  []int   // OpReshape, OpBroadcastS, OpZeros target shape
	N      int     // OpBroadcast0 leading dim
	Factor float64 // OpScale factor
	Stage  int     // OpYield: boundary index (1-based, in trace order)
	Bwd    bool    // OpYield: true if this yield was produced by autodiff
}

func (a Attrs) clone() Attrs {
	c := a
	if a.Shape != nil {
		c.Shape = append([]int(nil), a.Shape...)
	}
	return c
}

// Value is an SSA value: produced by exactly one equation or listed as a
// graph input.
type Value struct {
	ID    int
	Shape []int
	Name  string // optional debug name
}

func (v *Value) String() string {
	if v.Name != "" {
		return fmt.Sprintf("%%%d:%s%v", v.ID, v.Name, v.Shape)
	}
	return fmt.Sprintf("%%%d%v", v.ID, v.Shape)
}

// Equation is one primitive application.
type Equation struct {
	Op      Op
	Inputs  []*Value
	Outputs []*Value
	Attrs   Attrs
}

func (e *Equation) String() string {
	outs := make([]string, len(e.Outputs))
	for i, o := range e.Outputs {
		outs[i] = o.String()
	}
	ins := make([]string, len(e.Inputs))
	for i, in := range e.Inputs {
		ins[i] = in.String()
	}
	s := fmt.Sprintf("%s = %s(%s)", strings.Join(outs, ", "), e.Op, strings.Join(ins, ", "))
	switch e.Op {
	case OpReshape, OpZeros, OpBroadcastS:
		s += fmt.Sprintf(" shape=%v", e.Attrs.Shape)
	case OpScale:
		s += fmt.Sprintf(" factor=%g", e.Attrs.Factor)
	case OpBroadcast0:
		s += fmt.Sprintf(" n=%d", e.Attrs.N)
	case OpYield:
		s += fmt.Sprintf(" stage=%d bwd=%v", e.Attrs.Stage, e.Attrs.Bwd)
	}
	return s
}

// Graph is a traced function: typed inputs, a list of equations in
// topological (definition) order, and outputs.
type Graph struct {
	Name    string
	Inputs  []*Value
	Outputs []*Value
	Eqns    []*Equation

	nextID int
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// NewValue mints a fresh SSA value owned by this graph.
func (g *Graph) NewValue(shape []int, name string) *Value {
	v := &Value{ID: g.nextID, Shape: append([]int(nil), shape...), Name: name}
	g.nextID++
	return v
}

// AddInput registers a new graph input value.
func (g *Graph) AddInput(shape []int, name string) *Value {
	v := g.NewValue(shape, name)
	g.Inputs = append(g.Inputs, v)
	return v
}

// Emit appends an equation applying op to inputs, inferring the output shape.
// It returns the single output value (all current ops have one output).
func (g *Graph) Emit(op Op, attrs Attrs, inputs ...*Value) (*Value, error) {
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.Shape
	}
	outShape, err := InferShape(op, attrs, shapes)
	if err != nil {
		return nil, fmt.Errorf("ir: %s: %w", op, err)
	}
	out := g.NewValue(outShape, "")
	g.Eqns = append(g.Eqns, &Equation{Op: op, Inputs: inputs, Outputs: []*Value{out}, Attrs: attrs.clone()})
	return out, nil
}

// MustEmit is Emit panicking on shape errors; used by internal builders where
// shapes are constructed programmatically.
func (g *Graph) MustEmit(op Op, attrs Attrs, inputs ...*Value) *Value {
	v, err := g.Emit(op, attrs, inputs...)
	if err != nil {
		panic(err)
	}
	return v
}

// SetOutputs declares the graph outputs.
func (g *Graph) SetOutputs(vs ...*Value) { g.Outputs = vs }

// String renders the graph in a Jaxpr-like textual form.
func (g *Graph) String() string {
	var b strings.Builder
	ins := make([]string, len(g.Inputs))
	for i, v := range g.Inputs {
		ins[i] = v.String()
	}
	fmt.Fprintf(&b, "%s(%s) {\n", g.Name, strings.Join(ins, ", "))
	for _, e := range g.Eqns {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	outs := make([]string, len(g.Outputs))
	for i, v := range g.Outputs {
		outs[i] = v.String()
	}
	fmt.Fprintf(&b, "  return %s\n}", strings.Join(outs, ", "))
	return b.String()
}

// InferShape computes the output shape of op applied to the input shapes.
func InferShape(op Op, attrs Attrs, in [][]int) ([]int, error) {
	argc := func(n int) error {
		if len(in) != n {
			return fmt.Errorf("want %d operands, got %d", n, len(in))
		}
		return nil
	}
	switch op {
	case OpMatMul:
		if err := argc(2); err != nil {
			return nil, err
		}
		a, b := in[0], in[1]
		if len(a) != 2 || len(b) != 2 {
			return nil, fmt.Errorf("rank-2 operands required, got %v x %v", a, b)
		}
		if a[1] != b[0] {
			return nil, fmt.Errorf("inner dims differ: %v x %v", a, b)
		}
		return []int{a[0], b[1]}, nil
	case OpAdd, OpSub, OpMul:
		if err := argc(2); err != nil {
			return nil, err
		}
		a, b := in[0], in[1]
		switch {
		case tensor.ShapeEq(a, b):
			return append([]int(nil), a...), nil
		case len(b) == 0:
			return append([]int(nil), a...), nil
		case len(a) == 0:
			return append([]int(nil), b...), nil
		default:
			return nil, fmt.Errorf("shape mismatch %v vs %v", a, b)
		}
	case OpScale, OpReLU, OpReLUMask, OpTanh, OpYield:
		if err := argc(1); err != nil {
			return nil, err
		}
		return append([]int(nil), in[0]...), nil
	case OpTanhGrad:
		if err := argc(2); err != nil {
			return nil, err
		}
		if !tensor.ShapeEq(in[0], in[1]) {
			return nil, fmt.Errorf("shape mismatch %v vs %v", in[0], in[1])
		}
		return append([]int(nil), in[0]...), nil
	case OpTranspose:
		if err := argc(1); err != nil {
			return nil, err
		}
		if len(in[0]) != 2 {
			return nil, fmt.Errorf("rank-2 operand required, got %v", in[0])
		}
		return []int{in[0][1], in[0][0]}, nil
	case OpReshape:
		if err := argc(1); err != nil {
			return nil, err
		}
		if tensor.NumElements(attrs.Shape) != tensor.NumElements(in[0]) {
			return nil, fmt.Errorf("cannot reshape %v to %v", in[0], attrs.Shape)
		}
		return append([]int(nil), attrs.Shape...), nil
	case OpSum:
		if err := argc(1); err != nil {
			return nil, err
		}
		return []int{}, nil
	case OpSumAxis0:
		if err := argc(1); err != nil {
			return nil, err
		}
		if len(in[0]) == 0 {
			return nil, fmt.Errorf("cannot reduce a scalar on axis 0")
		}
		return append([]int(nil), in[0][1:]...), nil
	case OpBroadcast0:
		if err := argc(1); err != nil {
			return nil, err
		}
		if attrs.N <= 0 {
			return nil, fmt.Errorf("broadcast0 needs positive N, got %d", attrs.N)
		}
		return append([]int{attrs.N}, in[0]...), nil
	case OpBroadcastS:
		if err := argc(1); err != nil {
			return nil, err
		}
		if len(in[0]) != 0 {
			return nil, fmt.Errorf("broadcast_s wants a scalar operand, got %v", in[0])
		}
		return append([]int(nil), attrs.Shape...), nil
	case OpSoftmax:
		if err := argc(1); err != nil {
			return nil, err
		}
		if len(in[0]) != 2 {
			return nil, fmt.Errorf("rank-2 operand required, got %v", in[0])
		}
		return append([]int(nil), in[0]...), nil
	case OpXent:
		if err := argc(2); err != nil {
			return nil, err
		}
		if !tensor.ShapeEq(in[0], in[1]) || len(in[0]) != 2 {
			return nil, fmt.Errorf("rank-2 matching operands required, got %v vs %v", in[0], in[1])
		}
		return []int{}, nil
	case OpXentGrad:
		if err := argc(2); err != nil {
			return nil, err
		}
		if !tensor.ShapeEq(in[0], in[1]) || len(in[0]) != 2 {
			return nil, fmt.Errorf("rank-2 matching operands required, got %v vs %v", in[0], in[1])
		}
		return append([]int(nil), in[0]...), nil
	case OpZeros, OpConst:
		if err := argc(0); err != nil {
			return nil, err
		}
		return append([]int(nil), attrs.Shape...), nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}
