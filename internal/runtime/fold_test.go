package runtime

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// TestRunFoldsLaterPartialsIntoTheirAccumulator runs the instructions
// taskgraph emits for a gradient over three microbatches — a run, the
// accumulation of its partial at its last use, the partial's delete — on one
// actor. A partial a plain MatMul produces whose accumulator holds something
// is computed into it by its run (MatMulAccInto), the accumulation then
// having nothing left to do, so the store never holds that partial; into an
// empty accumulator the first partial moves. Any other partial — a Scale of
// the product, a product by a transpose (MatMulNTInto) — and one whose
// accumulator is borrowed is stored and accumulated as before. The sum is
// AddInto's, every bit, either way.
func TestRunFoldsLaterPartialsIntoTheirAccumulator(t *testing.T) {
	const m, k, n, mbs = 6, 5, 70, 3
	const w, acc = 0, 1 // buffers: the weight, the accumulator, then per microbatch x and the partial
	// An accumulator of +0 but for a NaN whose payload differs from the
	// products' where a NaN in the weight meets it: the sum keeps it only if
	// the accumulator is the first operand of every add.
	nanAt3 := func() *tensor.Tensor {
		t := tensor.New(m, n)
		t.Data()[3] = math.Float64frombits(0xFFF8000000000002)
		return t
	}
	for _, c := range []struct {
		name  string
		scale bool                  // the partial is 0.5·x·w
		nt    bool                  // the partial is x·Transpose(w)
		acc   func() *tensor.Tensor // the accumulator before the step
		// stored says whether a partial ever enters the store.
		stored bool
	}{
		{"matmul", false, false, nanAt3, false},
		{"scale of a matmul", true, false, nanAt3, true},
		{"matmul by a transpose", false, true, nanAt3, true},
		{"empty accumulator", false, false, func() *tensor.Tensor { return nil }, true},
		{"borrowed accumulator", false, false, func() *tensor.Tensor { return tensor.ViewRange0(tensor.New(m, n), 0, m) }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := ir.NewGraph("partial")
			wShape := []int{k, n}
			if c.nt {
				wShape = []int{n, k}
			}
			x, wv := g.AddInput([]int{m, k}, "x"), g.AddInput(wShape, "w")
			if c.nt {
				wv = g.MustEmit(ir.OpTranspose, ir.Attrs{}, wv)
			}
			out := g.MustEmit(ir.OpMatMul, ir.Attrs{}, x, wv)
			if c.scale {
				out = g.MustEmit(ir.OpScale, ir.Attrs{Factor: 0.5}, out)
			}
			g.SetOutputs(out)
			prog, err := interp.NewProgram(g)
			if err != nil {
				t.Fatal(err)
			}
			var instrs []taskgraph.Instr
			for mb := 0; mb < mbs; mb++ {
				xb, part := taskgraph.BufID(2+2*mb), taskgraph.BufID(3+2*mb)
				instrs = append(instrs,
					taskgraph.Instr{Kind: taskgraph.OpRun, MB: mb, Ins: []taskgraph.BufID{xb, w}, Outs: []taskgraph.BufID{part}},
					taskgraph.Instr{Kind: taskgraph.OpDelete, Buf: xb},
					taskgraph.Instr{Kind: taskgraph.OpAccum, Dst: acc, Buf: part, Last: true},
					taskgraph.Instr{Kind: taskgraph.OpDelete, Buf: part})
			}
			a := NewActor(0, nil)
			a.Load(instrs, []*segmentExecutable{{prog: prog}})

			rng := tensor.NewRNG(5)
			wt := rng.Normal(1, wShape...)
			wt.Data()[3] = math.NaN()
			wt.Data()[4] = math.Inf(1)
			a.Store.Put(w, wt)
			// The sum the accumulations build: the first partial moved
			// into an empty accumulator, each later one added to it.
			want := c.acc()
			if want != nil {
				a.Store.Put(acc, want)
				want = want.Clone()
			}
			for mb := 0; mb < mbs; mb++ {
				xt := rng.Normal(1, m, k)
				xt.Data()[mb] = 0
				a.Store.Put(taskgraph.BufID(2+2*mb), xt)
				var p *tensor.Tensor
				if c.nt {
					p = tensor.MatMul(xt, tensor.Transpose(wt))
				} else {
					p = tensor.MatMul(xt, wt)
				}
				if c.scale {
					p = tensor.Scale(p, 0.5)
				}
				if want == nil {
					want = p
				} else {
					tensor.AddInto(want, want, p)
				}
			}
			placed := a.Store.Stats().LiveBufs
			if err := a.RunStep(); err != nil {
				t.Fatal(err)
			}
			got, err := a.Store.Get(acc)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
					t.Fatalf("accumulator element %d = %#x, AddInto %#x", i, math.Float64bits(got.Data()[i]), math.Float64bits(v))
				}
			}
			// At its peak the store held what was placed before the step
			// and, where a partial is stored, that partial beside it.
			peak := placed
			if c.stored {
				peak++
			}
			if st := a.Store.Stats(); st.PeakBufs != peak || st.LiveBufs != 2 {
				t.Fatalf("store peak %d buffers, live %d; want peak %d, live 2", st.PeakBufs, st.LiveBufs, peak)
			}
			for pc := range a.folded {
				if a.folded[pc] {
					t.Fatalf("instruction %d still marked folded after the step", pc)
				}
			}
		})
	}
}
