package distrun

import (
	"math"
	"testing"

	jaxpp "repro"
	"repro/internal/obs"
	"repro/internal/taskgraph"
)

// TestWorkloadSegmentsRunOnlyWhatTheyOwe compiles the benchmark's four
// workloads, as bench/workloads.go shapes them, and holds each to what a
// compiled segment may execute: no equation its outputs do not need, 3·S − 1
// matmuls a microbatch (the input gradient of the batch, one of the 3·S
// autodiff emits, is nobody's), and a (Width, Width) transpose only inside
// MatMulNTInto when the microbatch has more rows than its dot form takes —
// by the tensor package's exact operand counters over RunLocal steps. What
// the schedule ships is not the segments' business and must not have moved:
// buffers, tags and sends are the counts of the commit before per-segment DCE.
func TestWorkloadSegmentsRunOnlyWhatTheyOwe(t *testing.T) {
	matmulElems, transposeElems := obs.Counter("matmul/a_elems"), obs.Counter("transpose/elems")
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	for _, w := range []struct {
		name                  string
		spec                  JobSpec
		bufs, tags, sends     int
		weightTransposesPerMB int // per microbatch: ct·wᵀ products that materialise wᵀ
	}{
		{"pp4-compute", JobSpec{Stages: 4, NumMB: 8, MBRows: 128, Width: 256, Schedule: "1f1b", LR: 0.05}, 184, 48, 48, 3},
		{"pp4-small", JobSpec{Stages: 4, NumMB: 16, MBRows: 8, Width: 32, Schedule: "1f1b", LR: 0.02}, 360, 96, 96, 0},
		{"dp2x2-dense", JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.01}, 24, 4, 4, 0},
		{"dp2x2-zq", JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.002, Momentum: 0.9, Sharded: true, WireDType: "int8q"}, 24, 4, 4, 0},
	} {
		t.Run(w.name, func(t *testing.T) {
			ts, err := Compile(w.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			prog := ts.Program()
			ts.Close()
			for _, seg := range prog.Split.Segments {
				if dead := seg.Graph.Clone().DCE(); dead != 0 {
					t.Errorf("segment %d (%s) holds %d equations none of its outputs needs:\n%s", seg.Index, seg.Kind, dead, seg.Graph)
				}
			}
			sends := 0
			for _, list := range prog.Actors {
				for _, in := range list {
					if in.Kind == taskgraph.OpSend {
						sends++
					}
				}
			}
			if prog.NumBufs != w.bufs || prog.NumTags != w.tags || sends != w.sends {
				t.Errorf("program has %d buffers, %d tags, %d sends a step; want %d, %d, %d", prog.NumBufs, prog.NumTags, sends, w.bufs, w.tags, w.sends)
			}

			const steps = 2
			spec := w.spec
			spec.Steps = steps
			m0, t0 := obs.CounterNow(matmulElems), obs.CounterNow(transposeElems)
			if _, err := RunLocal(spec); err != nil {
				t.Fatal(err)
			}
			s, width := spec.Stages, spec.Width
			mbs := spec.Replicas() * spec.NumMB
			operand := spec.MBRows * width // every matmul's left operand: x, xᵀ or ct
			if got, want := (obs.CounterNow(matmulElems)-m0)/steps, int64(mbs*(3*s-1)*operand); got != want {
				t.Errorf("matmul left operands: %d elements a step, want %d = %d microbatches x %d matmuls x %d", got, want, mbs, 3*s-1, operand)
			}
			// dW = xᵀ·ct transposes x, once per stage and microbatch.
			want := int64(mbs * (s*operand + w.weightTransposesPerMB*width*width))
			if got := (obs.CounterNow(transposeElems) - t0) / steps; got != want {
				t.Errorf("transposed %d elements a step, want %d (%d weight transposes a microbatch)", got, want, w.weightTransposesPerMB)
			}
		})
	}
}

// TestParameterFreeFirstStageStillTrains: a first stage without a parameter
// has a backward segment that owes nothing — per-segment DCE empties it, its
// task still runs and still receives its cotangent — where DCE of the whole
// grad graph would take its backward yield and the split would refuse the
// model. The losses are the ones the commit before per-segment DCE trained to.
func TestParameterFreeFirstStageStillTrains(t *testing.T) {
	const stages, numMB, rows, width = 3, 4, 4, 16
	ts, err := jaxpp.NewRemoteMesh(stages).Compile(jaxpp.CompileSpec{
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			h := b.PipelineYield(b.ReLU(mb[0]))
			h = b.PipelineYield(b.ReLU(b.MatMul(h, params[0])))
			return b.CrossEntropy(b.MatMul(h, params[1]), mb[1])
		},
		ParamShapes: [][]int{{width, width}, {width, width}},
		BatchShapes: [][]int{{rows, width}, {rows, width}},
		Schedule:    jaxpp.OneFOneB(stages, numMB),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	prog := ts.Program()
	if prog.NumBufs != 60 || prog.NumTags != 16 {
		t.Errorf("program has %d buffers and %d tags, want 60 and 16", prog.NumBufs, prog.NumTags)
	}
	if last := prog.Split.Segments[2*stages-2]; len(last.Graph.Eqns) != 0 || len(last.ActIn) != 1 {
		t.Errorf("stage 0's backward segment should be empty and still take its cotangent:\n%s", last.Graph)
	}
	rng := jaxpp.NewRNG(7)
	params := []*jaxpp.Tensor{rng.Xavier(width, width), rng.Xavier(width, width)}
	batch := []*jaxpp.Tensor{rng.Normal(1, numMB*rows, width), rng.OneHotBatch(numMB*rows, width)}
	want := [][numMB]uint64{
		{0x4005a012b47dcd0d, 0x40053be831c5ba1e, 0x40090efb07c51ca6, 0x4006c289f154fe09},
		{0x4003cdc00e326613, 0x4004443d45cfe607, 0x4005f02a3e8dfb78, 0x400633e7ed4bb352},
		{0x400235daa09d1d22, 0x400348832fd93870, 0x40036d0e8583463f, 0x4005a95d475af456},
	}
	for step := range want {
		losses, grads, err := ts.Step(params, batch)
		if err != nil {
			t.Fatal(err)
		}
		for mb, l := range losses {
			if got := math.Float64bits(l.Data()[0]); got != want[step][mb] {
				t.Fatalf("step %d microbatch %d: loss %#x, want %#x", step, mb, got, want[step][mb])
			}
		}
		for i, g := range grads {
			for j, v := range g.Data() {
				params[i].Data()[j] -= 0.1 * v
			}
		}
	}
}
