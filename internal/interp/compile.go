package interp

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/tensor"
)

// Program is a graph compiled to a flat list of closures over a dense value
// environment — the role an XLA executable plays for one pipeline segment.
// Compilation runs a liveness pass (ir.Graph.LastUse) so execution can:
//
//   - free dead intermediates into the tensor scratch pool the moment their
//     last consumer runs (steady-state steps allocate almost nothing),
//   - execute binary elementwise ops (the gradient-accumulation adds, the
//     ReLU backward's multiply) in place on a dying operand it owns,
//   - never materialise a Transpose whose one consumer is the right operand
//     of a MatMul: the pair runs as tensor.MatMulNTInto on the untransposed
//     operand (the ct·Wᵀ of a backward pass whose Wᵀ the step does not
//     hoist),
//   - run a Mul by a ReLUMask that nothing else reads as one
//     tensor.MulReLUMaskInto pass, with no mask tensor (the ReLU backward),
//   - compute one softmax for a loss and its gradient: an xent and an
//     xent_grad on the same (logits, targets) — the pair every last-stage
//     segment holds — share the softmax the xent computes,
//   - compute an output that a plain MatMul produces, and nothing else
//     reads, straight into an accumulator the caller hands it
//     (RunAccInto): tensor.MatMulAccInto, with no product tensor.
//
// Aliasing is tracked per storage root: Reshape views and in-place results
// share their operand's root, and a root is recycled only after every value
// aliasing it has died. Caller-provided inputs are never mutated or recycled;
// returned outputs are owned by the caller.
//
// A Program is immutable after compilation and safe for concurrent RunInto calls
// (data-parallel replicas share one compiled program per segment).
type Program struct {
	g        *ir.Graph
	nSlots   int
	outSlots []int
	// copyOut marks outputs that must be cloned on the way out: outputs
	// whose storage aliases a caller input (a Reshape of an input) or an
	// earlier output. Cloning there keeps the ownership contract — every
	// returned tensor is independently owned by the caller — airtight.
	copyOut []bool
	// accAt[i] marks output i as one a plain MatMul computes straight into
	// an accumulator: RunAccInto puts the accumulator it may use for output
	// i at env slot nSlots+i, where that MatMul's instruction looks for it.
	accAt   []bool
	instrs  []pinstr
	envPool sync.Pool // *[]*tensor.Tensor of length nSlots+len(outSlots)
}

// pinstr is one compiled instruction: an evaluation closure plus the storage
// roots that die once it has run.
type pinstr struct {
	eval func(env []*tensor.Tensor) error
	free []int
}

// compiler carries the per-graph analysis state while closures are emitted.
type compiler struct {
	g        *ir.Graph
	slotOf   map[int]int   // value ID -> dense env slot
	lastUse  []int         // per slot: last consuming eqn index (-1 unused, len(Eqns) output)
	root     []int         // per slot: storage-root slot (aliases share a root)
	owned    []bool        // per root slot: storage is program-owned (recyclable)
	rootLast []int         // per root slot: last eqn index at which any alias is live
	freed    []bool        // per root slot: a recycle has been scheduled
	uses     map[int][]int // value ID -> consuming eqn indices (ir.Graph.Uses)
	ntSrc    map[int]int   // slot of a fused-away Transpose -> slot of its operand
	maskSrc  map[int]int   // slot of a ReLUMask fused into its Mul -> slot of its operand
	// softmaxOf marks the xent_grad eqns whose output slot the xent on the
	// same (logits, targets) fills with softmax(logits) before they run.
	softmaxOf map[int]bool
	// accOut maps the slot of a value that is a graph output once and read
	// by nothing else to that output's index. Only emit's plain MatMul
	// closure folds into an accumulator, and it sets accAt for its output.
	accOut map[int]int
	accAt  []bool
	instrs []pinstr
}

// NewProgram compiles g. The graph must be SSA-well-formed (ir.Verify).
func NewProgram(g *ir.Graph) (*Program, error) {
	c := &compiler{g: g, slotOf: make(map[int]int, len(g.Inputs)+len(g.Eqns)), uses: g.Uses(),
		ntSrc: map[int]int{}, maskSrc: map[int]int{}, softmaxOf: map[int]bool{},
		accOut: map[int]int{}, accAt: make([]bool, len(g.Outputs))}
	for i, v := range g.Inputs {
		c.slotOf[v.ID] = i
	}
	n := len(g.Inputs)
	for i, e := range g.Eqns {
		if len(e.Outputs) != 1 {
			return nil, fmt.Errorf("interp: eqn %d has %d outputs, want 1", i, len(e.Outputs))
		}
		c.slotOf[e.Outputs[0].ID] = n
		n++
	}
	c.lastUse = make([]int, n)
	for s := range c.lastUse {
		c.lastUse[s] = -1
	}
	for id, last := range g.LastUse() {
		c.lastUse[c.slotOf[id]] = last
	}
	c.root = make([]int, n)
	c.owned = make([]bool, n)
	c.rootLast = make([]int, n)
	c.freed = make([]bool, n)
	for s := 0; s < n; s++ {
		c.root[s] = s
		c.rootLast[s] = c.lastUse[s]
	}
	for i, o := range g.Outputs {
		if u := c.uses[o.ID]; len(u) == 1 && u[0] == len(g.Eqns) {
			c.accOut[c.slotOf[o.ID]] = i
		}
	}

	for i := range g.Eqns {
		c.emit(i)
	}

	p := &Program{g: g, nSlots: n, instrs: c.instrs, accAt: c.accAt}
	p.outSlots = make([]int, len(g.Outputs))
	p.copyOut = make([]bool, len(g.Outputs))
	ownedRoots := map[int]bool{}
	for i, o := range g.Outputs {
		s := c.slotOf[o.ID]
		p.outSlots[i] = s
		r := c.root[s]
		p.copyOut[i] = !c.owned[r] || ownedRoots[r]
		ownedRoots[r] = true
	}
	p.envPool.New = func() any {
		env := make([]*tensor.Tensor, n+len(g.Outputs))
		return &env
	}
	return p, nil
}

func (c *compiler) slot(v *ir.Value) int { return c.slotOf[v.ID] }

// raiseRootLast extends the lifetime of root r to at least eqn index last.
func (c *compiler) raiseRootLast(r, last int) {
	if last > c.rootLast[r] {
		c.rootLast[r] = last
	}
}

// push appends an instruction and schedules recycling of every involved
// owned root whose lifetime ends at or before eqn index at.
func (c *compiler) push(at int, eval func([]*tensor.Tensor) error, involved []int) {
	var free []int
	for _, s := range involved {
		r := c.root[s]
		if !c.owned[r] || c.freed[r] {
			continue
		}
		if c.rootLast[r] <= at {
			free = append(free, r)
			c.freed[r] = true
		}
	}
	c.instrs = append(c.instrs, pinstr{eval: eval, free: free})
}

// freshOut marks the output slot as a new program-owned storage root.
func (c *compiler) freshOut(i, out int) {
	c.owned[out] = true
	c.raiseRootLast(out, i) // unused outputs die at their own instruction
}

// adoptable reports whether arg's storage may be overwritten at eqn i to hold
// the output: the root is program-owned, every alias dies at i, and the
// shapes match.
func (c *compiler) adoptable(i, argSlot int, argShape, outShape []int) bool {
	r := c.root[argSlot]
	return c.owned[r] && c.rootLast[r] == i && tensor.ShapeEq(argShape, outShape)
}

// adopt records that out reuses arg's storage root.
func (c *compiler) adopt(i, argSlot, outSlot int) {
	r := c.root[argSlot]
	c.root[outSlot] = r
	c.raiseRootLast(r, c.lastUse[outSlot])
	c.raiseRootLast(r, i) // at minimum the storage lives through this eqn
}

// emit compiles eqn i.
func (c *compiler) emit(i int) {
	e := c.g.Eqns[i]
	out := c.slot(e.Outputs[0])
	args := make([]int, len(e.Inputs))
	for k, in := range e.Inputs {
		args[k] = c.slot(in)
	}
	outShape := e.Outputs[0].Shape
	involved := append(append([]int(nil), args...), out)

	switch e.Op {
	case ir.OpReshape:
		// Zero-copy view: output aliases the operand's storage root.
		a := args[0]
		r := c.root[a]
		c.root[out] = r
		c.raiseRootLast(r, c.lastUse[out])
		shape := e.Attrs.Shape
		c.push(i, func(env []*tensor.Tensor) error {
			env[out] = tensor.Reshape(env[a], shape...)
			return nil
		}, involved)

	case ir.OpYield:
		// Identity marking a stage boundary: alias the operand instead of
		// cloning it (the reference Apply clones). The output shares the
		// operand's storage root, so liveness keeps the storage alive and
		// copyOut preserves the caller-ownership contract for outputs.
		a := args[0]
		r := c.root[a]
		c.root[out] = r
		c.raiseRootLast(r, c.lastUse[out])
		c.push(i, func(env []*tensor.Tensor) error {
			env[out] = env[a]
			return nil
		}, involved)

	case ir.OpMatMul:
		a, b := args[0], args[1]
		if src, ok := c.ntSrc[b]; ok {
			// b is a Transpose that was never run: multiply against its
			// operand's rows where they lie.
			c.freshOut(i, out)
			c.push(i, func(env []*tensor.Tensor) error {
				dst := tensor.GetScratchShaped(outShape...)
				tensor.MatMulNTInto(dst, env[a], env[src])
				env[out] = dst
				return nil
			}, []int{a, src, out})
			return
		}
		c.freshOut(i, out)
		o, folds := c.accOut[out]
		if folds {
			c.accAt[o] = true
		}
		at := len(c.lastUse) + o // accumulators sit past the value slots
		c.push(i, func(env []*tensor.Tensor) error {
			if folds && env[at] != nil {
				tensor.MatMulAccInto(env[at], env[a], env[b])
				return nil
			}
			dst := tensor.GetScratchShaped(outShape...)
			tensor.MatMulInto(dst, env[a], env[b])
			env[out] = dst
			return nil
		}, involved)

	case ir.OpAdd, ir.OpSub, ir.OpMul:
		into := tensor.AddInto
		switch e.Op {
		case ir.OpSub:
			into = tensor.SubInto
		case ir.OpMul:
			into = tensor.MulInto
		}
		a, b := args[0], args[1]
		if h, ok := c.maskSrc[b]; ok && e.Op == ir.OpMul {
			c.emitMulReLUMask(i, a, h, out, false, e.Inputs[0].Shape, outShape)
			return
		}
		if h, ok := c.maskSrc[a]; ok && e.Op == ir.OpMul {
			c.emitMulReLUMask(i, b, h, out, true, e.Inputs[1].Shape, outShape)
			return
		}
		// Prefer writing into a dying operand (gradient-accumulation adds hit
		// this path); the kernels are index-local, so the other operand may
		// alias the destination.
		switch {
		case c.adoptable(i, a, e.Inputs[0].Shape, outShape):
			c.adopt(i, a, out)
			c.push(i, func(env []*tensor.Tensor) error {
				t := env[a]
				into(t, t, env[b])
				env[out] = t
				return nil
			}, involved)
		case c.adoptable(i, b, e.Inputs[1].Shape, outShape):
			c.adopt(i, b, out)
			c.push(i, func(env []*tensor.Tensor) error {
				t := env[b]
				into(t, env[a], t)
				env[out] = t
				return nil
			}, involved)
		default:
			c.freshOut(i, out)
			c.push(i, func(env []*tensor.Tensor) error {
				dst := tensor.GetScratchShaped(outShape...)
				into(dst, env[a], env[b])
				env[out] = dst
				return nil
			}, involved)
		}

	case ir.OpScale, ir.OpReLU, ir.OpReLUMask, ir.OpSoftmax:
		if j := c.soleMaskFactorOf(e); j >= 0 {
			// Fused into Mul j (see there): nothing runs here, and the
			// operand the mask is read from lives on until j.
			c.maskSrc[out] = args[0]
			c.raiseRootLast(c.root[args[0]], j)
			return
		}
		factor := e.Attrs.Factor
		var into func(dst, a *tensor.Tensor)
		switch e.Op {
		case ir.OpScale:
			into = func(dst, a *tensor.Tensor) { tensor.ScaleInto(dst, a, factor) }
		case ir.OpReLU:
			into = tensor.ReLUInto
		case ir.OpReLUMask:
			into = tensor.ReLUMaskInto
		case ir.OpSoftmax:
			into = tensor.SoftmaxInto
		}
		// Into fresh scratch, never in place: in a value-and-grad graph the
		// backward reads a ReLU's operand again, so it never dies here.
		a := args[0]
		c.freshOut(i, out)
		c.push(i, func(env []*tensor.Tensor) error {
			dst := tensor.GetScratchShaped(outShape...)
			into(dst, env[a])
			env[out] = dst
			return nil
		}, involved)

	case ir.OpXent:
		l, y := args[0], args[1]
		lShape := e.Inputs[0].Shape
		c.freshOut(i, out)
		g := -1 // the slot that keeps the softmax, if any
		if j := c.xentGradOf(i, e); j >= 0 {
			// The softmax goes where xent_grad j turns it into the gradient
			// in place: that slot is a program-owned root from here on, and
			// it lives at least until j runs.
			g = c.slot(c.g.Eqns[j].Outputs[0])
			c.softmaxOf[j] = true
			c.owned[g] = true
			c.raiseRootLast(g, j)
		}
		c.push(i, func(env []*tensor.Tensor) error {
			loss, p := tensor.GetScratchShaped(), tensor.GetScratchShaped(lShape...)
			tensor.CrossEntropySoftmaxInto(loss, p, env[l], env[y])
			env[out] = loss
			if g >= 0 {
				env[g] = p
			} else {
				tensor.Recycle(p)
			}
			return nil
		}, involved)

	case ir.OpXentGrad:
		a, b := args[0], args[1]
		if c.softmaxOf[i] {
			c.push(i, func(env []*tensor.Tensor) error {
				t := env[out]
				tensor.CrossEntropyGradOfSoftmaxInto(t, t, env[b])
				return nil
			}, involved)
			return
		}
		// No xent shares its softmax: a graph with the gradient alone.
		c.freshOut(i, out)
		c.push(i, func(env []*tensor.Tensor) error {
			dst := tensor.GetScratchShaped(outShape...)
			tensor.CrossEntropyGradInto(dst, env[a], env[b])
			env[out] = dst
			return nil
		}, involved)

	case ir.OpTranspose:
		a := args[0]
		if j := c.soleRightOperandOf(e.Outputs[0]); j >= 0 {
			// Fused into MatMul j (see there): nothing runs here, the slot
			// stays empty and unowned, and the operand's storage — which
			// might have died at this equation — lives on until j reads it.
			c.ntSrc[out] = a
			c.raiseRootLast(c.root[a], j)
			return
		}
		c.freshOut(i, out)
		c.push(i, func(env []*tensor.Tensor) error {
			dst := tensor.GetScratchShaped(outShape...)
			tensor.TransposeInto(dst, env[a])
			env[out] = dst
			return nil
		}, involved)

	case ir.OpSumAxis0:
		a := args[0]
		c.freshOut(i, out)
		c.push(i, func(env []*tensor.Tensor) error {
			dst := tensor.GetScratchShaped(outShape...)
			tensor.SumAxis0Into(dst, env[a])
			env[out] = dst
			return nil
		}, involved)

	case ir.OpZeros:
		c.freshOut(i, out)
		c.push(i, func(env []*tensor.Tensor) error {
			env[out] = tensor.GetScratchZero(outShape...)
			return nil
		}, involved)
		return

	default:
		// Generic fallback: the reference Apply. Results are fresh tensors
		// (Reshape, the only aliasing op, is handled above), so the output is
		// a recyclable root.
		op, attrs := e.Op, e.Attrs
		c.freshOut(i, out)
		argsCopy := append([]int(nil), args...)
		c.push(i, func(env []*tensor.Tensor) error {
			in := make([]*tensor.Tensor, len(argsCopy))
			for k, s := range argsCopy {
				in[k] = env[s]
			}
			t, err := Apply(op, attrs, in)
			if err != nil {
				return err
			}
			env[out] = t
			return nil
		}, involved)
	}
}

// xentGradOf returns the index of the first xent_grad after the xent at eqn
// i that reads the same logits and targets and has no softmax yet, or -1.
// The two then compute CrossEntropy and CrossEntropyGradInto from one
// SoftmaxInto, the same bits as two.
func (c *compiler) xentGradOf(i int, e *ir.Equation) int {
	l, y := e.Inputs[0].ID, e.Inputs[1].ID
	for _, j := range c.uses[l] {
		if j <= i || j >= len(c.g.Eqns) || c.softmaxOf[j] {
			continue
		}
		if f := c.g.Eqns[j]; f.Op == ir.OpXentGrad && f.Inputs[0].ID == l && f.Inputs[1].ID == y {
			return j
		}
	}
	return -1
}

// soleRightOperandOf returns the index of the MatMul whose right operand is
// v's one and only use, or -1: a second consumer, a graph output, the left
// operand or MatMul(v, v) all need v itself.
func (c *compiler) soleRightOperandOf(v *ir.Value) int {
	u := c.uses[v.ID]
	if len(u) != 1 || u[0] == len(c.g.Eqns) {
		return -1
	}
	if e := c.g.Eqns[u[0]]; e.Op == ir.OpMatMul && e.Inputs[1].ID == v.ID {
		return u[0]
	}
	return -1
}

// soleMaskFactorOf returns the index of the Mul that is the one and only use
// of the ReLUMask at eqn e, or -1 — also when e is no ReLUMask, and when the
// Mul would broadcast: tensor.MulReLUMaskInto takes ct and h of one shape.
func (c *compiler) soleMaskFactorOf(e *ir.Equation) int {
	v := e.Outputs[0]
	u := c.uses[v.ID]
	if e.Op != ir.OpReLUMask || len(u) != 1 || u[0] == len(c.g.Eqns) {
		return -1
	}
	if f := c.g.Eqns[u[0]]; f.Op == ir.OpMul && tensor.ShapeEq(f.Inputs[0].Shape, f.Inputs[1].Shape) {
		return u[0]
	}
	return -1
}

// emitMulReLUMask compiles the Mul at eqn i of ct by the fused-away
// ReLUMask of h: in place on ct when it dies here, else on h, else into
// fresh scratch, like any binary op.
func (c *compiler) emitMulReLUMask(i, ct, h, out int, maskLeft bool, ctShape, outShape []int) {
	involved := []int{ct, h, out}
	into := -1
	switch {
	case c.adoptable(i, ct, ctShape, outShape):
		into = ct
	case c.adoptable(i, h, ctShape, outShape):
		into = h
	}
	if into >= 0 {
		c.adopt(i, into, out)
		c.push(i, func(env []*tensor.Tensor) error {
			t := env[into]
			tensor.MulReLUMaskInto(t, env[ct], env[h], maskLeft)
			env[out] = t
			return nil
		}, involved)
		return
	}
	c.freshOut(i, out)
	c.push(i, func(env []*tensor.Tensor) error {
		dst := tensor.GetScratchShaped(outShape...)
		tensor.MulReLUMaskInto(dst, env[ct], env[h], maskLeft)
		env[out] = dst
		return nil
	}, involved)
}

// NumOutputs returns the number of output tensors a run produces.
func (p *Program) NumOutputs() int { return len(p.outSlots) }

// RunInto executes the program on inputs (positionally matching the graph's
// inputs) and writes the output tensors into outs (len NumOutputs), which a
// caller may reuse across steps to keep the dispatch path allocation-free.
// Inputs are borrowed for the duration of the call: they are never mutated,
// never recycled, and no reference to them outlives the call except through
// outputs that copyOut cloning already detached. Outputs are owned by the
// caller. Safe for concurrent use.
func (p *Program) RunInto(outs []*tensor.Tensor, inputs []*tensor.Tensor) error {
	return p.RunAccInto(outs, inputs, nil)
}

// RunAccInto is RunInto that computes an output a plain MatMul produces
// straight into an accumulator instead of returning it. Where accs[i] is
// non-nil, owned (no borrowed view) and of output i's shape, and output i is
// such a product, tensor.MatMulAccInto adds it into accs[i] — accs[i] +
// output, accs[i] the first operand, AddInto's bits — and outs[i] is left
// nil. Every other output is returned as RunInto returns it. accs may be
// nil, or hold NumOutputs entries; an accumulator must share no storage
// with an input.
func (p *Program) RunAccInto(outs, inputs, accs []*tensor.Tensor) error {
	g := p.g
	if len(inputs) != len(g.Inputs) {
		return fmt.Errorf("interp: graph %q wants %d inputs, got %d", g.Name, len(g.Inputs), len(inputs))
	}
	if len(outs) != len(p.outSlots) {
		return fmt.Errorf("interp: graph %q produces %d outputs, destination holds %d", g.Name, len(p.outSlots), len(outs))
	}
	if accs != nil && len(accs) != len(p.outSlots) {
		return fmt.Errorf("interp: graph %q produces %d outputs, accumulators hold %d", g.Name, len(p.outSlots), len(accs))
	}
	for i, v := range g.Inputs {
		if !inputs[i].HasShape(v.Shape) {
			return fmt.Errorf("interp: input %d shape %v, value wants %v", i, inputs[i].Shape(), v.Shape)
		}
	}
	envp := p.envPool.Get().(*[]*tensor.Tensor)
	env := *envp
	copy(env, inputs)
	// acc[i] is accs[i] where output i folds into it, else nil.
	acc := env[p.nSlots:]
	for i, t := range accs {
		if p.accAt[i] && t != nil && !t.Borrowed() && t.HasShape(g.Outputs[i].Shape) {
			acc[i] = t
		}
	}
	for i := range p.instrs {
		ins := &p.instrs[i]
		if err := ins.eval(env); err != nil {
			clear(env)
			p.envPool.Put(envp)
			return fmt.Errorf("interp: eqn %d: %w", i, err)
		}
		for _, s := range ins.free {
			tensor.Recycle(env[s])
			env[s] = nil
		}
	}
	for i, s := range p.outSlots {
		switch {
		case acc[i] != nil:
			outs[i] = nil // the MatMul added itself into acc[i]
		case p.copyOut[i]:
			outs[i] = env[s].Clone()
		default:
			outs[i] = env[s]
		}
	}
	clear(env)
	p.envPool.Put(envp)
	return nil
}
