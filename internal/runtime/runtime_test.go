package runtime

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// buildMLPGrad traces an S-stage MLP microbatch grad graph.
func buildMLPGrad(t *testing.T, stages, mbRows, width int) *ir.Graph {
	t.Helper()
	g, err := trace.Trace("mlp", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", mbRows, width)
		y := b.Input("y", mbRows, width)
		var ws []*ir.Value
		for i := 0; i < stages; i++ {
			ws = append(ws, b.Input("w", width, width))
		}
		h := x
		for i, w := range ws {
			h = b.ReLU(b.MatMul(h, w))
			if i+1 < len(ws) {
				h = b.PipelineYield(h)
			}
		}
		return []*ir.Value{b.CrossEntropy(h, y)}
	})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := autodiff.ValueAndGrad(g, g.Inputs[2:])
	if err != nil {
		t.Fatal(err)
	}
	return gg
}

// referenceAccumulate computes the ground truth: loop over microbatches on a
// single device, summing gradients and collecting losses — the semantic
// definition of accumulate_grads in §3.1.
func referenceAccumulate(t *testing.T, g *ir.Graph, params []*tensor.Tensor, fullX, fullY *tensor.Tensor, numMB int) ([]*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	mbRows := fullX.Dim(0) / numMB
	var losses []*tensor.Tensor
	var grads []*tensor.Tensor
	for mb := 0; mb < numMB; mb++ {
		x := tensor.ViewRange0(fullX, mb*mbRows, (mb+1)*mbRows).Clone()
		y := tensor.ViewRange0(fullY, mb*mbRows, (mb+1)*mbRows).Clone()
		ins := append([]*tensor.Tensor{x, y}, params...)
		outs, err := interp.Eval(g, ins)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, outs[0])
		if grads == nil {
			grads = append(grads, outs[1:]...)
		} else {
			for i := range grads {
				grads[i] = tensor.Add(grads[i], outs[1+i])
			}
		}
	}
	return losses, grads
}

type pipelineCase struct {
	name  string
	sched func(actors, mbs int) *schedule.Schedule
}

func stdSchedules() []pipelineCase {
	return []pipelineCase{
		{"gpipe", schedule.GPipe},
		{"1f1b", schedule.OneFOneB},
	}
}

// runPipeline compiles and executes the MPMD program and returns losses and
// gradients.
func runPipeline(t *testing.T, g *ir.Graph, sched *schedule.Schedule, commute bool, params []*tensor.Tensor, fullX, fullY *tensor.Tensor) ([]*tensor.Tensor, []*tensor.Tensor, *Executable) {
	t.Helper()
	split, err := stage.SplitGraph(g, stage.Options{CommuteGradAccumulation: commute})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, sched, taskgraph.Options{BatchInputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(sched.NumActors)
	exe, err := cl.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := append([]*tensor.Tensor{fullX, fullY}, params...)
	losses, grads, err := exe.Step(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return losses, grads, exe
}

func TestMPMDGradientEquivalence(t *testing.T) {
	for _, stages := range []int{2, 3, 4} {
		for _, numMB := range []int{stages, 2 * stages, 8} {
			for _, sc := range stdSchedules() {
				name := fmt.Sprintf("%s/S%d/MB%d", sc.name, stages, numMB)
				t.Run(name, func(t *testing.T) {
					width, mbRows := 6, 4
					g := buildMLPGrad(t, stages, mbRows, width)
					rng := tensor.NewRNG(uint64(stages*100 + numMB))
					params := make([]*tensor.Tensor, stages)
					for i := range params {
						params[i] = rng.Normal(0.5, width, width)
					}
					fullX := rng.Normal(1, numMB*mbRows, width)
					fullY := rng.OneHotBatch(numMB*mbRows, width)
					wantL, wantG := referenceAccumulate(t, g, params, fullX, fullY, numMB)
					gotL, gotG, _ := runPipeline(t, g, sc.sched(stages, numMB), false, params, fullX, fullY)
					for mb := range wantL {
						if !tensor.AllClose(gotL[mb], wantL[mb], 1e-10, 1e-12) {
							t.Fatalf("loss mb %d: got %v want %v", mb, gotL[mb], wantL[mb])
						}
					}
					for i := range wantG {
						if !tensor.AllClose(gotG[i], wantG[i], 1e-10, 1e-12) {
							t.Fatalf("grad %d differs by %v", i, tensor.MaxAbsDiff(gotG[i], wantG[i]))
						}
					}
				})
			}
		}
	}
}

func TestInterleavedGradientEquivalence(t *testing.T) {
	// 4 stages over 2 actors (circular repeat 2), 4 microbatches.
	stages, actors, numMB, width, mbRows := 4, 2, 4, 6, 4
	g := buildMLPGrad(t, stages, mbRows, width)
	sched, err := schedule.Interleaved1F1B(actors, numMB, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(77)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	fullX := rng.Normal(1, numMB*mbRows, width)
	fullY := rng.OneHotBatch(numMB*mbRows, width)
	wantL, wantG := referenceAccumulate(t, g, params, fullX, fullY, numMB)
	gotL, gotG, _ := runPipeline(t, g, sched, false, params, fullX, fullY)
	for mb := range wantL {
		if !tensor.AllClose(gotL[mb], wantL[mb], 1e-10, 1e-12) {
			t.Fatalf("loss mb %d differs", mb)
		}
	}
	for i := range wantG {
		if !tensor.AllClose(gotG[i], wantG[i], 1e-10, 1e-12) {
			t.Fatalf("grad %d differs by %v", i, tensor.MaxAbsDiff(gotG[i], wantG[i]))
		}
	}
}

func buildTiedGrad(t *testing.T, mbRows, width int) *ir.Graph {
	t.Helper()
	g, err := trace.Trace("tied", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", mbRows, width)
		y := b.Input("y", mbRows, width)
		w := b.Input("w", width, width)
		v := b.Input("v", width, width)
		h := b.ReLU(b.MatMul(x, w))
		h = b.PipelineYield(h)
		h = b.ReLU(b.MatMul(h, v))
		h = b.PipelineYield(h)
		out := b.MatMul(h, b.Transpose(w))
		return []*ir.Value{b.CrossEntropy(out, y)}
	})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := autodiff.ValueAndGrad(g, []*ir.Value{g.Inputs[2], g.Inputs[3]})
	if err != nil {
		t.Fatal(err)
	}
	return gg
}

func TestTiedWeightsWithAndWithoutCommuting(t *testing.T) {
	numMB, width, mbRows := 6, 6, 4
	g := buildTiedGrad(t, mbRows, width)
	rng := tensor.NewRNG(13)
	params := []*tensor.Tensor{rng.Normal(0.5, width, width), rng.Normal(0.5, width, width)}
	fullX := rng.Normal(1, numMB*mbRows, width)
	fullY := rng.OneHotBatch(numMB*mbRows, width)
	wantL, wantG := referenceAccumulate(t, g, params, fullX, fullY, numMB)

	var sendElems [2]int64
	for ci, commute := range []bool{false, true} {
		split, err := stage.SplitGraph(g.Clone(), stage.Options{CommuteGradAccumulation: commute})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := taskgraph.Compile(split, schedule.OneFOneB(3, numMB), taskgraph.Options{BatchInputs: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		tr := &countingTransport{Transport: NewChanTransport()}
		cl := NewClusterWithTransport(3, tr)
		exe, err := cl.Load(prog, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inputs := append([]*tensor.Tensor{fullX, fullY}, params...)
		gotL, gotG, err := exe.Step(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for mb := range wantL {
			if !tensor.AllClose(gotL[mb], wantL[mb], 1e-10, 1e-12) {
				t.Fatalf("commute=%v loss mb %d differs", commute, mb)
			}
		}
		for i := range wantG {
			if !tensor.AllClose(gotG[i], wantG[i], 1e-10, 1e-12) {
				t.Fatalf("commute=%v grad %d differs by %v", commute, i, tensor.MaxAbsDiff(gotG[i], wantG[i]))
			}
		}
		sendElems[ci] = tr.elems.Load()
	}
	// §3.4: commuting must strictly reduce communication volume (one final
	// partial transfer instead of one per microbatch).
	if sendElems[1] >= sendElems[0] {
		t.Fatalf("loop commuting did not reduce traffic: %d -> %d elems", sendElems[0], sendElems[1])
	}
}

func TestMultiStepReuse(t *testing.T) {
	// The executable must be reusable across steps (training loop) without
	// stale accumulators leaking in.
	stages, numMB, width, mbRows := 3, 6, 6, 4
	g := buildMLPGrad(t, stages, mbRows, width)
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{BatchInputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(stages)
	exe, err := cl.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(21)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	lr := 0.1
	var prevLoss float64
	for step := 0; step < 5; step++ {
		fullX := tensor.NewRNG(100).Normal(1, numMB*mbRows, width) // fixed batch
		fullY := tensor.NewRNG(101).OneHotBatch(numMB*mbRows, width)
		wantL, wantG := referenceAccumulate(t, g, params, fullX, fullY, numMB)
		inputs := append([]*tensor.Tensor{fullX, fullY}, params...)
		gotL, gotG, err := exe.Step(inputs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		total := 0.0
		for mb := range gotL {
			if !tensor.AllClose(gotL[mb], wantL[mb], 1e-10, 1e-12) {
				t.Fatalf("step %d loss mb %d differs", step, mb)
			}
			total += gotL[mb].Data()[0]
		}
		for i := range gotG {
			if !tensor.AllClose(gotG[i], wantG[i], 1e-10, 1e-12) {
				t.Fatalf("step %d grad %d differs", step, i)
			}
			params[i] = tensor.Sub(params[i], tensor.Scale(gotG[i], lr))
		}
		if step > 0 && total >= prevLoss {
			t.Fatalf("step %d: loss did not decrease (%v -> %v)", step, prevLoss, total)
		}
		prevLoss = total
	}
}

func TestPeakMemory1F1BBelowGPipe(t *testing.T) {
	// Invariant 4: 1F1B's peak live bytes on the first actor are below
	// GPipe's for enough microbatches (its activation lifetime is bounded by
	// stages, not microbatches).
	stages, numMB, width, mbRows := 4, 16, 8, 4
	g := buildMLPGrad(t, stages, mbRows, width)
	rng := tensor.NewRNG(31)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	fullX := rng.Normal(1, numMB*mbRows, width)
	fullY := rng.OneHotBatch(numMB*mbRows, width)

	peak := func(sched *schedule.Schedule) int64 {
		_, _, exe := runPipeline(t, g, sched, false, params, fullX, fullY)
		stats := exe.StoreStatsAll()
		return stats[0].PeakBytes
	}
	gp := peak(schedule.GPipe(stages, numMB))
	ob := peak(schedule.OneFOneB(stages, numMB))
	if ob >= gp {
		t.Fatalf("1F1B peak %d >= GPipe peak %d", ob, gp)
	}
}

func TestDeletionBoundsMemory(t *testing.T) {
	stages, numMB, width, mbRows := 3, 12, 8, 4
	g := buildMLPGrad(t, stages, mbRows, width)
	rng := tensor.NewRNG(41)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	fullX := rng.Normal(1, numMB*mbRows, width)
	fullY := rng.OneHotBatch(numMB*mbRows, width)

	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	peak := func(disable bool) int64 {
		prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{BatchInputs: []int{0, 1}, DisableDeletion: disable})
		if err != nil {
			t.Fatal(err)
		}
		cl := NewCluster(stages)
		exe, err := cl.Load(prog, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inputs := append([]*tensor.Tensor{fullX, fullY}, params...)
		if _, _, err := exe.Step(inputs); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, st := range exe.StoreStatsAll() {
			total += st.PeakBytes
		}
		return total
	}
	withDel := peak(false)
	withoutDel := peak(true)
	if withDel >= withoutDel {
		t.Fatalf("deletion pass did not reduce peak memory: %d vs %d", withDel, withoutDel)
	}
}

// TestFirstGradientMovesIntoAccumulator runs one program twice, as compiled
// and with its Last marks cleared (the copying path a program without
// deletions keeps): the gradients agree bit for bit and no store peaks
// higher. With a single microbatch of one row every actor's store peaks most
// of a gradient lower, the copy that is no longer made less the activations
// the backward task held at its own high-water mark; with more microbatches
// a later one holds accumulator and fresh gradient side by side either way.
func TestFirstGradientMovesIntoAccumulator(t *testing.T) {
	stages, width, mbRows := 3, 16, 1
	g := buildMLPGrad(t, stages, mbRows, width)
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, numMB := range []int{1, 6} {
		rng := tensor.NewRNG(43)
		params := make([]*tensor.Tensor, stages)
		for i := range params {
			params[i] = rng.Normal(0.5, width, width)
		}
		inputs := append([]*tensor.Tensor{rng.Normal(1, numMB*mbRows, width), rng.OneHotBatch(numMB*mbRows, width)}, params...)
		run := func(move bool) ([]*tensor.Tensor, []StoreStats) {
			prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{BatchInputs: []int{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			marked := 0
			for _, list := range prog.Actors {
				for i := range list {
					if list[i].Last {
						marked++
						list[i].Last = move
					}
				}
			}
			if marked != stages*numMB {
				t.Fatalf("%d accumulates marked Last, want %d", marked, stages*numMB)
			}
			exe, err := NewCluster(stages).Load(prog, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, grads, err := exe.Step(inputs)
			if err != nil {
				t.Fatal(err)
			}
			return grads, exe.StoreStatsAll()
		}
		copied, copyStats := run(false)
		moved, moveStats := run(true)
		for i := range copied {
			for j, v := range copied[i].Data() {
				if math.Float64bits(v) != math.Float64bits(moved[i].Data()[j]) {
					t.Fatalf("%d microbatches, grad %d element %d: %v copied, %v moved", numMB, i, j, v, moved[i].Data()[j])
				}
			}
		}
		gradBytes := int64(width * width * 8)
		for a := range copyStats {
			got, was := moveStats[a].PeakBytes, copyStats[a].PeakBytes
			if got > was || (numMB == 1 && got > was-gradBytes/2) {
				t.Errorf("%d microbatches, actor %d: store peak %d B with the move, %d B with the copy (a gradient is %d B)", numMB, a, got, was, gradBytes)
			}
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.Put(1, tensor.New(4))
	if _, err := s.Get(1); err != nil {
		t.Fatal(err)
	}
	s.Delete(1)
	if _, err := s.Get(1); err == nil {
		t.Fatal("deleted buffer still present")
	}
}

func TestChanTransport(t *testing.T) {
	tr := &countingTransport{Transport: NewChanTransport()}
	done := make(chan *tensor.Tensor)
	go func() {
		got, err := tr.Recv(1, 0, 7)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	want := tensor.MustFromSlice([]float64{1, 2}, 2)
	tr.Send(0, 1, 7, want)
	got := <-done
	if !tensor.AllClose(got, want, 0, 0) {
		t.Fatal("payload mismatch")
	}
	if n, elems := tr.sends.Load(), tr.elems.Load(); n != 1 || elems != 2 {
		t.Fatalf("count=%d elems=%d", n, elems)
	}
}
