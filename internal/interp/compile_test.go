package interp

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// mlpGrad traces a depth-layer MLP with cross-entropy loss and differentiates
// it — the op mix (matmul, relu, xent, transposes, accumulation adds) every
// pipeline segment executes.
func mlpGrad(tb testing.TB, depth, rows, width int) (*ir.Graph, []*tensor.Tensor) {
	tb.Helper()
	var params []*ir.Value
	g, err := trace.Trace("mlp", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", rows, width)
		y := b.Input("y", rows, width)
		h := x
		for d := 0; d < depth; d++ {
			w := b.Input(fmt.Sprintf("w%d", d), width, width)
			params = append(params, w)
			h = b.ReLU(b.MatMul(h, w))
		}
		return []*ir.Value{b.CrossEntropy(h, y)}
	})
	if err != nil {
		tb.Fatal(err)
	}
	gg, err := autodiff.ValueAndGrad(g, params)
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	inputs := []*tensor.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width)}
	for range params {
		inputs = append(inputs, rng.Xavier(width, width))
	}
	return gg, inputs
}

// TestProgramMatchesEval is the golden gate for the compiled-closure
// executor: on a traced forward+backward graph, Program.Run must reproduce
// the reference interpreter bit for bit — in-place execution, buffer
// pooling, and fusion must be unobservable.
func TestProgramMatchesEval(t *testing.T) {
	g, inputs := mlpGrad(t, 3, 8, 16)
	want, err := Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated runs reuse pooled buffers; results must stay identical and
	// previously returned outputs must stay intact.
	var prev []*tensor.Tensor
	for step := 0; step < 5; step++ {
		got, err := p.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d outputs, want %d", step, len(got), len(want))
		}
		for i := range want {
			if !tensor.AllClose(got[i], want[i], 0, 0) {
				t.Fatalf("step %d output %d: program diverges from Eval", step, i)
			}
		}
		for i := range prev {
			if !tensor.AllClose(prev[i], want[i], 0, 0) {
				t.Fatalf("step %d: pooling clobbered a previously returned output %d", step, i)
			}
		}
		prev = got
	}
	// Inputs must never be mutated by in-place execution.
	rng := tensor.NewRNG(3)
	fresh := []*tensor.Tensor{rng.Normal(1, 8, 16), rng.OneHotBatch(8, 16)}
	for i := 0; i < 2; i++ {
		if !tensor.AllClose(inputs[i], fresh[i], 0, 0) {
			t.Fatalf("input %d was mutated by Run", i)
		}
	}
}

// TestProgramReshapeAliasing checks that view-reshapes through the compiled
// path neither corrupt results nor recycle storage that outputs alias.
func TestProgramReshapeAliasing(t *testing.T) {
	g, err := trace.Trace("reshape", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 4, 6)
		v := b.Reshape(x, 6, 4)              // aliases a graph input
		m := b.MatMul(v, b.Reshape(v, 4, 6)) // alias of alias
		flat := b.Reshape(m, 36)             // output aliases an intermediate
		return []*ir.Value{flat, b.Sum(m)}
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	in := rng.Normal(1, 4, 6)
	want, err := Eval(g, []*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := p.Run([]*tensor.Tensor{in})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !tensor.AllClose(got[j], want[j], 1e-12, 1e-12) {
				t.Fatalf("run %d output %d mismatch", i, j)
			}
		}
	}
}

// TestProgramOutputsIndependent pins the ownership contract for outputs:
// even when a graph output is a Reshape of a caller input, or two outputs
// share storage, the returned tensors must be independently owned — mutating
// one must not touch the caller's inputs or any other output.
func TestProgramOutputsIndependent(t *testing.T) {
	g, err := trace.Trace("alias-out", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 2, 3)
		v := b.Reshape(x, 3, 2) // output aliasing a caller input
		s := b.Scale(x, 2)
		return []*ir.Value{v, s, b.Reshape(s, 6)} // two outputs sharing a root
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got, err := p.Run([]*tensor.Tensor{in})
	if err != nil {
		t.Fatal(err)
	}
	got[0].Data()[0] = 99
	if in.At(0, 0) != 1 {
		t.Fatal("mutating output 0 corrupted the caller's input")
	}
	got[1].Data()[0] = -7
	if got[2].Data()[0] == -7 {
		t.Fatal("outputs 1 and 2 share storage")
	}
}

// TestProgramFusionSelfAdd pins the fuser's corner case ReLU(Add(mm, mm)):
// both Add operands are the MatMul result, so there is no bias operand to
// fuse and the chain must fall back to unfused execution (regression: the
// fused kernel read the never-materialized MatMul slot and panicked).
func TestProgramFusionSelfAdd(t *testing.T) {
	g, err := trace.Trace("self-add", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 4, 4)
		w := b.Input("w", 4, 4)
		mm := b.MatMul(x, w)
		return []*ir.Value{b.ReLU(b.Add(mm, mm))}
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	in := []*tensor.Tensor{rng.Normal(1, 4, 4), rng.Normal(1, 4, 4)}
	want, err := Eval(g, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got[0], want[0], 1e-12, 1e-12) {
		t.Fatal("self-add fusion corner case diverges from Eval")
	}
}

// stageGrad is the value-and-grad graph of one MLP stage differentiated with
// respect to its input and its weight — the graph the benchmark's interp
// probe times, and every backward product a pipeline segment holds: dW =
// xᵀ·ct keeps its small transpose, dx = ct·wᵀ is the pair the compiler fuses.
func stageGrad(tb testing.TB, rows, width int) (*ir.Graph, []*tensor.Tensor) {
	tb.Helper()
	var wrt []*ir.Value
	g, err := trace.Trace("stage", func(b *trace.Builder) []*ir.Value {
		x, y, w := b.Input("x", rows, width), b.Input("y", rows, width), b.Input("w", width, width)
		wrt = []*ir.Value{x, w}
		return []*ir.Value{b.CrossEntropy(b.ReLU(b.MatMul(x, w)), y)}
	})
	if err != nil {
		tb.Fatal(err)
	}
	gg, err := autodiff.ValueAndGrad(g, wrt)
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	return gg, []*tensor.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width), rng.Xavier(width, width)}
}

// transposedElems runs p once and returns its outputs with the number of
// elements TransposeInto moved meanwhile (the exact transpose/elems counter).
func transposedElems(t *testing.T, p *Program, inputs []*tensor.Tensor) ([]*tensor.Tensor, int64) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	c := obs.Counter("transpose/elems")
	before := obs.CounterNow(c)
	got, err := p.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return got, obs.CounterNow(c) - before
}

// sameBitsAsEval holds a program's outputs to the reference evaluator bit
// for bit.
func sameBitsAsEval(t *testing.T, g *ir.Graph, inputs, got []*tensor.Tensor) {
	t.Helper()
	want, err := Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].HasShape(want[i].Shape()) {
			t.Fatalf("output %d has shape %v, Eval gives %v", i, got[i].Shape(), want[i].Shape())
		}
		for j, w := range want[i].Data() {
			if v := got[i].Data()[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("output %d element %d: program %v, Eval %v", i, j, v, w)
			}
		}
	}
}

// TestTransposeMatMulFusion: a Transpose read by nothing but the right
// operand of one MatMul is never materialised, the result is Eval's bit for
// bit, and a Transpose anything else reads still runs.
func TestTransposeMatMulFusion(t *testing.T) {
	const rows, width = 4, 512
	g, inputs := stageGrad(t, rows, width)
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	// Only xᵀ is left of the step's two transposes: no (width, width) one.
	got, moved := transposedElems(t, p, inputs)
	if moved != rows*width {
		t.Errorf("the stage program transposed %d elements, want %d (xᵀ alone; wᵀ is %d)", moved, rows*width, width*width)
	}
	sameBitsAsEval(t, g, inputs, got)

	// The outputs are the caller's own: dx came out of MatMulNTInto's
	// destination, not out of anything the next run reuses.
	again, err := p.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if len(got[i].Data()) > 0 && &got[i].Data()[0] == &again[i].Data()[0] {
			t.Fatalf("output %d of two runs shares storage", i)
		}
	}
	sameBitsAsEval(t, g, inputs, got)
	sameBitsAsEval(t, g, inputs, again)

	// Steady state: the fused pair draws its destination and its non-zero
	// lists from pools, so the program allocates exactly what it does with
	// dx cut out of it.
	if !raceEnabled {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		allocs := func(p *Program) float64 {
			outs := make([]*tensor.Tensor, p.NumOutputs())
			step := func() {
				if err := p.RunInto(outs, inputs); err != nil {
					t.Fatal(err)
				}
				for _, o := range outs {
					tensor.Recycle(o)
				}
			}
			step()
			return testing.AllocsPerRun(20, step)
		}
		noDx := g.Clone()
		noDx.SetOutputs(noDx.Outputs[0], noDx.Outputs[2])
		if noDx.DCE() != 2 {
			t.Fatal("dx is a transpose and a matmul")
		}
		base, err := NewProgram(noDx)
		if err != nil {
			t.Fatal(err)
		}
		if with, without := allocs(p), allocs(base); with != without {
			t.Errorf("a steady-state RunInto allocates %v times, %v without the fused pair", with, without)
		}
	}

	rng := tensor.NewRNG(11)
	for _, c := range []struct {
		name  string
		build func(b *trace.Builder, a, w *ir.Value) []*ir.Value
		moved int64 // elements TransposeInto must still move; w is (6, 5)
	}{
		{"sole right operand", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			return []*ir.Value{b.MatMul(a, b.Transpose(w))}
		}, 0},
		{"fused pair ahead of a relu", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			// NT wins over MatMul→ReLU; the ReLU runs in place on the product.
			return []*ir.Value{b.ReLU(b.MatMul(a, b.Transpose(w)))}
		}, 0},
		{"operand dead before the matmul", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			// s has no reader after its transpose: its storage must outlive
			// the equations between the pair, in-place ones included.
			s := b.Scale(w, 2)
			st := b.Transpose(s)
			a2 := b.ReLU(b.Scale(a, -3))
			return []*ir.Value{b.MatMul(a2, st)}
		}, 0},
		{"second consumer before the matmul", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			wt := b.Transpose(w)
			return []*ir.Value{b.MatMul(a, b.Scale(wt, 2)), b.MatMul(a, wt)}
		}, 30},
		{"second consumer after the matmul", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			wt := b.Transpose(w)
			return []*ir.Value{b.MatMul(a, wt), b.Scale(wt, 2)}
		}, 30},
		{"graph output", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			wt := b.Transpose(w)
			return []*ir.Value{b.MatMul(a, wt), wt}
		}, 30},
		{"left operand", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			return []*ir.Value{b.MatMul(b.Transpose(w), w)}
		}, 30},
		{"both operands", func(b *trace.Builder, a, w *ir.Value) []*ir.Value {
			st := b.Transpose(b.MatMul(b.Transpose(w), w)) // (5, 5)
			return []*ir.Value{b.MatMul(st, st)}
		}, 30 + 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := trace.Trace("nt", func(b *trace.Builder) []*ir.Value {
				return c.build(b, b.Input("a", 3, 5), b.Input("w", 6, 5))
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProgram(g)
			if err != nil {
				t.Fatal(err)
			}
			inputs := []*tensor.Tensor{rng.Normal(1, 3, 5), rng.Normal(1, 6, 5)}
			for run := 0; run < 3; run++ { // pooled storage comes back dirty
				got, moved := transposedElems(t, p, inputs)
				if moved != c.moved {
					t.Fatalf("run %d: %d elements transposed, want %d", run, moved, c.moved)
				}
				sameBitsAsEval(t, g, inputs, got)
				for _, o := range got {
					tensor.Recycle(o)
				}
			}
		})
	}
}

// TestProgramConcurrentRuns exercises one shared Program from several
// goroutines (data-parallel replicas share compiled segments); run under
// -race.
func TestProgramConcurrentRuns(t *testing.T) {
	g, inputs := mlpGrad(t, 2, 4, 8)
	want, err := Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, err := p.Run(inputs)
				if err != nil {
					errc <- err
					return
				}
				for j := range want {
					if !tensor.AllClose(got[j], want[j], 0, 0) {
						errc <- fmt.Errorf("iteration %d output %d mismatch", i, j)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkInterpStep measures one forward+backward evaluation of a 4-layer
// MLP on the compiled program vs the reference interpreter (-benchmem shows
// the pooling win).
func BenchmarkInterpStep(b *testing.B) {
	g, inputs := mlpGrad(b, 4, 8, 32)
	benchProgram(b, "", g, inputs)
	// One stage at the dp2x2 workloads' shape, where ct·wᵀ against a 2 MiB
	// weight is the step: the compiled side runs it on w's own rows.
	g, inputs = stageGrad(b, 4, 512)
	benchProgram(b, "stage4x512/", g, inputs)
}

func benchProgram(b *testing.B, prefix string, g *ir.Graph, inputs []*tensor.Tensor) {
	p, err := NewProgram(g)
	if err != nil {
		b.Fatal(err)
	}
	outs := make([]*tensor.Tensor, p.NumOutputs())
	b.Run(prefix+"compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := p.RunInto(outs, inputs); err != nil {
				b.Fatal(err)
			}
			for _, o := range outs {
				tensor.Recycle(o)
			}
		}
	})
	b.Run(prefix+"reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Eval(g, inputs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// softmaxRows runs p once and returns its outputs with the number of rows
// SoftmaxInto normalised meanwhile (the exact softmax/rows counter).
func softmaxRows(t *testing.T, p *Program, inputs []*tensor.Tensor) ([]*tensor.Tensor, int64) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	c := obs.Counter("softmax/rows")
	before := obs.CounterNow(c)
	got, err := p.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return got, obs.CounterNow(c) - before
}

// TestXentSharesSoftmax: an xent and an xent_grad on the same logits and
// targets run one softmax between them, and the loss and gradient are
// Eval's bit for bit; an xent alone, or one whose gradient reads other
// targets, computes its own.
func TestXentSharesSoftmax(t *testing.T) {
	const rows, width = 8, 32
	g, inputs := stageGrad(t, rows, width)
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	got, n := softmaxRows(t, p, inputs)
	if n != rows {
		t.Errorf("the loss segment normalised %d softmax rows, want %d (one softmax)", n, rows)
	}
	sameBitsAsEval(t, g, inputs, got)
	for step := 0; step < 3; step++ { // pooled storage the next run reuses
		again, err := p.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sameBitsAsEval(t, g, inputs, again)
		sameBitsAsEval(t, g, inputs, got)
	}

	rng := tensor.NewRNG(13)
	l, y, y2 := rng.Normal(3, rows, width), rng.OneHotBatch(rows, width), rng.OneHotBatch(rows, width)
	for _, c := range []struct {
		name  string
		build func(b *trace.Builder, l, y, y2 *ir.Value) []*ir.Value
		rows  int64
	}{
		{"loss alone", func(b *trace.Builder, l, y, _ *ir.Value) []*ir.Value {
			return []*ir.Value{b.CrossEntropy(l, y)}
		}, rows},
		{"gradient of other targets", func(b *trace.Builder, l, y, y2 *ir.Value) []*ir.Value {
			return []*ir.Value{b.CrossEntropy(l, y), b.Graph().MustEmit(ir.OpXentGrad, ir.Attrs{}, l, y2)}
		}, 2 * rows},
		{"two losses, one gradient", func(b *trace.Builder, l, y, _ *ir.Value) []*ir.Value {
			return []*ir.Value{b.CrossEntropy(l, y), b.CrossEntropy(l, y), b.Graph().MustEmit(ir.OpXentGrad, ir.Attrs{}, l, y)}
		}, 2 * rows},
		{"gradient before the loss", func(b *trace.Builder, l, y, _ *ir.Value) []*ir.Value {
			gl := b.Graph().MustEmit(ir.OpXentGrad, ir.Attrs{}, l, y)
			return []*ir.Value{gl, b.CrossEntropy(l, y)}
		}, 2 * rows},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := trace.Trace(c.name, func(b *trace.Builder) []*ir.Value {
				return c.build(b, b.Input("l", rows, width), b.Input("y", rows, width), b.Input("y2", rows, width))
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProgram(g)
			if err != nil {
				t.Fatal(err)
			}
			in := []*tensor.Tensor{l, y, y2}
			got, n := softmaxRows(t, p, in)
			if n != c.rows {
				t.Errorf("normalised %d softmax rows, want %d", n, c.rows)
			}
			sameBitsAsEval(t, g, in, got)
		})
	}
}

// Run is RunInto into a new result slice.
func (p *Program) Run(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, p.NumOutputs())
	if err := p.RunInto(outs, inputs); err != nil {
		return nil, err
	}
	return outs, nil
}

// TestReLUMaskMulFusion: a Mul by a ReLUMask that nothing else reads — the
// ReLU backward — compiles to one kernel with no mask tensor, in either
// operand order and in place on a dying ct, with Eval's bits on NaN
// payloads, ±0 and ±Inf in both ct and h. A mask with a second reader, a mask
// that is a graph output, and a Mul that broadcasts keep the mask.
func TestReLUMaskMulFusion(t *testing.T) {
	mask := func(g *ir.Graph, h *ir.Value) *ir.Value { return g.MustEmit(ir.OpReLUMask, ir.Attrs{}, h) }
	mul := func(g *ir.Graph, x, y *ir.Value) *ir.Value { return g.MustEmit(ir.OpMul, ir.Attrs{}, x, y) }
	for _, c := range []struct {
		name   string
		build  func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value
		instrs int
	}{
		{"ct times mask", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			return []*ir.Value{mul(g, ct, mask(g, h))}
		}, 1},
		{"mask times ct", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			return []*ir.Value{mul(g, mask(g, h), ct)}
		}, 1},
		{"dying ct, in place", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			return []*ir.Value{mul(g, g.MustEmit(ir.OpScale, ir.Attrs{Factor: -3}, ct), mask(g, h))}
		}, 2},
		{"dying h, in place", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			return []*ir.Value{mul(g, mask(g, g.MustEmit(ir.OpScale, ir.Attrs{Factor: -3}, h)), ct)}
		}, 2},
		{"mask read twice", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			m := mask(g, h)
			return []*ir.Value{mul(g, ct, m), g.MustEmit(ir.OpAdd, ir.Attrs{}, m, ct)}
		}, 3},
		{"mask is an output", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			m := mask(g, h)
			return []*ir.Value{mul(g, ct, m), m}
		}, 2},
		{"scalar ct", func(g *ir.Graph, ct, h, s *ir.Value) []*ir.Value {
			return []*ir.Value{mul(g, s, mask(g, h))}
		}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := ir.NewGraph("relu_bwd")
			ct, h, s := g.AddInput([]int{4, 5}, "ct"), g.AddInput([]int{4, 5}, "h"), g.AddInput(nil, "s")
			g.SetOutputs(c.build(g, ct, h, s)...)
			p, err := NewProgram(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.instrs) != c.instrs {
				t.Errorf("%d instructions, want %d", len(p.instrs), c.instrs)
			}
			specials := []float64{math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002),
				0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -2.5, 1.5}
			rng := tensor.NewRNG(13)
			inputs := []*tensor.Tensor{rng.Normal(1, 4, 5), rng.Normal(1, 4, 5), tensor.Scalar(math.Inf(-1))}
			for i := range specials {
				inputs[0].Data()[2*i] = specials[i]
				inputs[1].Data()[2*i+1] = specials[len(specials)-1-i]
				inputs[1].Data()[(2*i+5)%20] = specials[i]
			}
			for run := 0; run < 3; run++ { // pooled storage comes back dirty
				got, err := p.Run(inputs)
				if err != nil {
					t.Fatal(err)
				}
				sameBitsAsEval(t, g, inputs, got)
			}
		})
	}
}
