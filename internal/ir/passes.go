package ir

import (
	"fmt"

	"repro/internal/tensor"
)

// Verify checks SSA well-formedness: every value is defined exactly once
// (as a graph input or a single equation output), every use is dominated by
// its definition in list order, output shapes match shape inference, and all
// graph outputs are defined.
func (g *Graph) Verify() error {
	defined := make(map[int]bool, len(g.Inputs)+len(g.Eqns))
	for _, v := range g.Inputs {
		if defined[v.ID] {
			return fmt.Errorf("ir: input %s defined twice", v)
		}
		defined[v.ID] = true
	}
	for i, e := range g.Eqns {
		for _, in := range e.Inputs {
			if !defined[in.ID] {
				return fmt.Errorf("ir: eqn %d (%s) uses undefined value %s", i, e.Op, in)
			}
		}
		shapes := make([][]int, len(e.Inputs))
		for j, in := range e.Inputs {
			shapes[j] = in.Shape
		}
		want, err := InferShape(e.Op, e.Attrs, shapes)
		if err != nil {
			return fmt.Errorf("ir: eqn %d: %w", i, err)
		}
		if len(e.Outputs) != 1 {
			return fmt.Errorf("ir: eqn %d (%s) must have exactly one output", i, e.Op)
		}
		if !tensor.ShapeEq(e.Outputs[0].Shape, want) {
			return fmt.Errorf("ir: eqn %d (%s) output shape %v, inference says %v", i, e.Op, e.Outputs[0].Shape, want)
		}
		for _, out := range e.Outputs {
			if defined[out.ID] {
				return fmt.Errorf("ir: value %s defined twice", out)
			}
			defined[out.ID] = true
		}
	}
	for _, o := range g.Outputs {
		if !defined[o.ID] {
			return fmt.Errorf("ir: graph output %s is undefined", o)
		}
	}
	return nil
}

// Producer returns a map from value ID to the index of the equation defining
// it; graph inputs map to -1.
func (g *Graph) Producer() map[int]int {
	p := make(map[int]int, len(g.Inputs)+len(g.Eqns))
	for _, v := range g.Inputs {
		p[v.ID] = -1
	}
	for i, e := range g.Eqns {
		for _, o := range e.Outputs {
			p[o.ID] = i
		}
	}
	return p
}

// DCE removes equations whose outputs are not (transitively) needed by the
// graph outputs. It returns the number of equations removed.
func (g *Graph) DCE() int {
	live := make(map[int]bool)
	for _, o := range g.Outputs {
		live[o.ID] = true
	}
	// Equations are in definition order; walk backwards propagating liveness.
	keep := make([]bool, len(g.Eqns))
	for i := len(g.Eqns) - 1; i >= 0; i-- {
		e := g.Eqns[i]
		needed := false
		for _, o := range e.Outputs {
			if live[o.ID] {
				needed = true
			}
		}
		keep[i] = needed
		if needed {
			for _, in := range e.Inputs {
				live[in.ID] = true
			}
		}
	}
	out := g.Eqns[:0]
	removed := 0
	for i, e := range g.Eqns {
		if keep[i] {
			out = append(out, e)
		} else {
			removed++
		}
	}
	g.Eqns = out
	return removed
}

// Uses returns, for each value ID, the indices of equations consuming it.
// Graph outputs are recorded with index len(Eqns).
func (g *Graph) Uses() map[int][]int {
	u := make(map[int][]int)
	for i, e := range g.Eqns {
		for _, in := range e.Inputs {
			u[in.ID] = append(u[in.ID], i)
		}
	}
	for _, o := range g.Outputs {
		u[o.ID] = append(u[o.ID], len(g.Eqns))
	}
	return u
}

// LastUse returns, for each value ID, the index of the equation consuming it
// last. Graph outputs are pinned to len(Eqns) so they outlive every equation;
// values no equation consumes are absent. This is the liveness information
// the interpreter's compiled programs use to free dead intermediates into the
// tensor buffer pool.
func (g *Graph) LastUse() map[int]int {
	last := make(map[int]int, len(g.Eqns)+len(g.Outputs))
	for i, e := range g.Eqns {
		for _, in := range e.Inputs {
			last[in.ID] = i
		}
	}
	for _, o := range g.Outputs {
		last[o.ID] = len(g.Eqns)
	}
	return last
}

// Clone deep-copies the graph. Values are re-minted with identical IDs so
// that ID-keyed maps carry over.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, nextID: g.nextID}
	vals := make(map[int]*Value)
	cv := func(v *Value) *Value {
		if n, ok := vals[v.ID]; ok {
			return n
		}
		n := &Value{ID: v.ID, Shape: append([]int(nil), v.Shape...), Name: v.Name}
		vals[v.ID] = n
		return n
	}
	for _, v := range g.Inputs {
		c.Inputs = append(c.Inputs, cv(v))
	}
	for _, e := range g.Eqns {
		ne := &Equation{Op: e.Op, Attrs: e.Attrs.clone()}
		for _, in := range e.Inputs {
			ne.Inputs = append(ne.Inputs, cv(in))
		}
		for _, o := range e.Outputs {
			ne.Outputs = append(ne.Outputs, cv(o))
		}
		c.Eqns = append(c.Eqns, ne)
	}
	for _, o := range g.Outputs {
		c.Outputs = append(c.Outputs, cv(o))
	}
	return c
}

// YieldBoundaries returns the indices of OpYield equations, split into
// forward (in trace order) and backward (in list order) yields.
func (g *Graph) YieldBoundaries() (fwd, bwd []int) {
	for i, e := range g.Eqns {
		if e.Op != OpYield {
			continue
		}
		if e.Attrs.Bwd {
			bwd = append(bwd, i)
		} else {
			fwd = append(fwd, i)
		}
	}
	return fwd, bwd
}
