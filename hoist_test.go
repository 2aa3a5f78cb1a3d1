package jaxpp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/stage"
	"repro/internal/taskgraph"
)

// TestHoistedTransposeKeepsTiedWeightBits trains the tied-embedding model of
// examples/transformer — E read by stage 0 and, transposed in the forward,
// by the last stage, under interleaved 1F1B on two actors — at 48 rows a
// step, where each actor transposes its weights once a step in a prologue,
// the last stage's after E's replica arrives. Every step's losses and
// gradients hash to the bits the commit before the hoist computed, while
// the weights change between Step calls (which a transpose cached per weight
// would get wrong).
func TestHoistedTransposeKeepsTiedWeightBits(t *testing.T) {
	const hidden, mbRows, numMB, actors, repeat, steps, lr = 24, 6, 8, 2, 2, 3, 0.05
	sched, err := Interleaved1F1B(actors, numMB, repeat)
	if err != nil {
		t.Fatal(err)
	}
	numStages := actors * repeat
	paramShapes := [][]int{{hidden, hidden}}
	for s := 0; s < numStages; s++ {
		paramShapes = append(paramShapes, []int{hidden, 2 * hidden}, []int{2 * hidden, hidden})
	}
	ts, err := NewRemoteMesh(actors).Compile(CompileSpec{
		Loss: func(b *Builder, params, mb []*Value) *Value {
			e := params[0]
			h := b.MatMul(mb[0], e)
			for s := 0; s < numStages; s++ {
				h = b.Add(h, b.MatMul(b.ReLU(b.MatMul(h, params[1+2*s])), params[2+2*s]))
				if s+1 < numStages {
					h = b.PipelineYield(h)
				}
			}
			return b.CrossEntropy(b.MatMul(h, b.Transpose(e)), mb[1])
		},
		ParamShapes:             paramShapes,
		BatchShapes:             [][]int{{mbRows, hidden}, {mbRows, hidden}},
		Schedule:                sched,
		CommuteGradAccumulation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// The last stage's prologue transposes E, on the actor E is replicated
	// to, behind the replica's receive and ahead of every other receive.
	const eInput = 2 // graph inputs: the two batch inputs, then E
	prog := ts.Program()
	var eT *stage.Segment
	for _, seg := range prog.Split.Segments {
		if seg.Kind == stage.Prologue && seg.Stage == numStages-1 && slices.Contains(seg.ParamIn, eInput) {
			eT = seg
		}
	}
	if eT == nil {
		t.Fatalf("no prologue of stage %d transposes E:\n%v", numStages-1, prog.Split.Segments)
	}
	list := prog.Actors[sched.StageActor[numStages-1]]
	run := slices.IndexFunc(list, func(in taskgraph.Instr) bool { return in.Kind == taskgraph.OpRun && in.Seg == eT.Index })
	if run < 0 {
		t.Fatalf("the actor of stage %d never runs its prologue:\n%v", numStages-1, list)
	}
	recvs := 0
	for _, in := range list[:run] {
		if in.Kind == taskgraph.OpRecv {
			recvs++
		}
	}
	if recvs != 1 {
		t.Fatalf("E's transpose runs at pc %d after %d receives, want after E's replica alone:\n%v", run, recvs, list)
	}

	rng := NewRNG(7)
	params := []*Tensor{rng.Xavier(hidden, hidden)}
	for s := 0; s < numStages; s++ {
		params = append(params, rng.Xavier(hidden, 2*hidden), rng.Xavier(2*hidden, hidden))
	}
	batch := []*Tensor{rng.OneHotBatch(numMB*mbRows, hidden), rng.OneHotBatch(numMB*mbRows, hidden)}
	want := [steps]uint64{0xb305d5e471df3f58, 0xb9280460102d8d32, 0x2d9653f67bcde69}
	for step := range want {
		losses, grads, err := ts.Step(params, batch)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, x := range append(losses, grads...) {
			for _, v := range x.Data() {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := h.Sum64(); got != want[step] {
			t.Errorf("step %d: losses and gradients hash to %#x, want %#x", step, got, want[step])
		}
		for i, g := range grads {
			for j, v := range g.Data() {
				params[i].Data()[j] -= lr * v
			}
		}
	}
}
