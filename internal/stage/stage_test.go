package stage

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// traceGradMLP builds the differentiated microbatch graph of an S-stage MLP:
// inputs [x, y, w_0..w_{S-1}], outputs [loss, dw_0..dw_{S-1}].
func traceGradMLP(t *testing.T, stages int, width int) *ir.Graph {
	t.Helper()
	g, err := trace.Trace("mlp", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 4, width)
		y := b.Input("y", 4, width)
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

func mlpGradInputs(stages, width int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	ins := []*tensor.Tensor{rng.Normal(1, 4, width), rng.OneHotBatch(4, width)}
	for i := 0; i < stages; i++ {
		ins = append(ins, rng.Normal(0.5, width, width))
	}
	return ins
}

// runSplitSequentially executes all segments in dataflow order, wiring cut
// values through an environment, and returns [loss, grads...] with commuted
// partials re-summed.
func runSplitSequentially(t *testing.T, s *Split, inputs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	vals := map[int]*tensor.Tensor{} // original value ID -> tensor
	for _, seg := range s.Segments {
		args := make([]*tensor.Tensor, 0, len(seg.ParamIn)+len(seg.ActIn))
		for _, pi := range seg.ParamIn {
			args = append(args, inputs[pi])
		}
		for _, cv := range seg.ActIn {
			v, ok := vals[cv.ID]
			if !ok {
				t.Fatalf("segment %d needs value %d from segment %d before it was produced", seg.Index, cv.ID, cv.FromSeg)
			}
			args = append(args, v)
		}
		outs, err := interp.Eval(seg.Graph, args)
		if err != nil {
			t.Fatalf("segment %d: %v", seg.Index, err)
		}
		for i, id := range seg.OutIDs {
			vals[id] = outs[i]
		}
	}
	res := []*tensor.Tensor{vals[s.Source.Outputs[0].ID]}
	for _, gr := range s.Grads {
		sum := vals[gr.Partials[0].ValueID]
		for _, p := range gr.Partials[1:] {
			sum = tensor.Add(sum, vals[p.ValueID])
		}
		res = append(res, sum)
	}
	return res
}

func TestSplitSegmentCount(t *testing.T) {
	for _, stages := range []int{1, 2, 3, 4} {
		g := traceGradMLP(t, stages, 6)
		s, err := SplitGraph(g, Options{})
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if s.NumStages != stages {
			t.Fatalf("NumStages=%d want %d", s.NumStages, stages)
		}
		if len(s.Segments) != 2*stages-1 {
			t.Fatalf("segments=%d want %d", len(s.Segments), 2*stages-1)
		}
	}
}

func TestSplitMatchesWholeGraph(t *testing.T) {
	for _, stages := range []int{2, 3, 4} {
		g := traceGradMLP(t, stages, 6)
		inputs := mlpGradInputs(stages, 6, uint64(stages))
		want, err := interp.Eval(g, inputs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := SplitGraph(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := runSplitSequentially(t, s, inputs)
		for i := range want {
			if !tensor.AllClose(got[i], want[i], 1e-12, 1e-12) {
				t.Fatalf("stages=%d output %d differs by %v", stages, i, tensor.MaxAbsDiff(got[i], want[i]))
			}
		}
	}
}

func TestSegmentKinds(t *testing.T) {
	g := traceGradMLP(t, 3, 6)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{Fwd, Fwd, FwdLossBwd, Bwd, Bwd}
	wantStages := []int{0, 1, 2, 1, 0}
	for i, seg := range s.Segments {
		if seg.Kind != wantKinds[i] {
			t.Fatalf("segment %d kind %v want %v", i, seg.Kind, wantKinds[i])
		}
		if seg.Stage != wantStages[i] {
			t.Fatalf("segment %d stage %d want %d", i, seg.Stage, wantStages[i])
		}
	}
}

func TestStageOfSegmentMirrors(t *testing.T) {
	// 4 stages: segments 0..6 map to stages 0,1,2,3,2,1,0.
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for seg, st := range want {
		if got := StageOfSegment(seg, 4); got != st {
			t.Fatalf("StageOfSegment(%d, 4)=%d want %d", seg, got, st)
		}
	}
}

func TestBackwardColocatedWithForward(t *testing.T) {
	// Weights used in forward stage s must have their gradient produced in
	// the segment whose Stage is also s (backward co-location assumption of
	// §3.3).
	g := traceGradMLP(t, 3, 6)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for gi, gr := range s.Grads {
		if len(gr.Partials) != 1 {
			t.Fatalf("grad %d has %d partials without weight sharing", gi, len(gr.Partials))
		}
		p := gr.Partials[0]
		// Weight i feeds forward stage i (inputs: x, y, w0, w1, w2).
		wantStage := gi
		if got := s.Segments[p.Seg].Stage; got != wantStage {
			t.Fatalf("grad %d produced on stage %d, want %d", gi, got, wantStage)
		}
	}
}

func TestInputPlacement(t *testing.T) {
	g := traceGradMLP(t, 3, 6)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// x first used by segment 0; y first used at the loss (fused segment 2);
	// w_i first used in forward segment i.
	if s.InputSeg[0] != 0 {
		t.Fatalf("x placed on segment %d", s.InputSeg[0])
	}
	if s.InputSeg[1] != 2 {
		t.Fatalf("y placed on segment %d, want loss segment 2", s.InputSeg[1])
	}
	for i := 0; i < 3; i++ {
		if s.InputSeg[2+i] != i {
			t.Fatalf("w%d placed on segment %d want %d", i, s.InputSeg[2+i], i)
		}
	}
	if s.LossSeg != 2 {
		t.Fatalf("loss segment %d", s.LossSeg)
	}
}

func TestCrossSegmentEdgesAreForward(t *testing.T) {
	g := traceGradMLP(t, 4, 8)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range s.Segments {
		for _, cv := range seg.ActIn {
			if cv.FromSeg >= seg.Index {
				t.Fatalf("segment %d consumes value from segment %d (not earlier)", seg.Index, cv.FromSeg)
			}
		}
	}
	if len(s.CrossSegmentEdges()) == 0 {
		t.Fatal("expected cross-segment edges")
	}
}

func traceTiedGrad(t *testing.T) *ir.Graph {
	t.Helper()
	// Tied embedding: W used in stage 0 and (transposed) in the last stage.
	g, err := trace.Trace("tied", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 4, 6)
		y := b.Input("y", 4, 6)
		w := b.Input("w", 6, 6)
		v := b.Input("v", 6, 6)
		h := b.ReLU(b.MatMul(x, w)) // stage 0: embedding-ish
		h = b.PipelineYield(h)
		h = b.ReLU(b.MatMul(h, v)) // stage 1
		h = b.PipelineYield(h)
		out := b.MatMul(h, b.Transpose(w)) // stage 2: tied projection
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

func tiedInputs(seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	return []*tensor.Tensor{
		rng.Normal(1, 4, 6), rng.OneHotBatch(4, 6),
		rng.Normal(0.5, 6, 6), rng.Normal(0.5, 6, 6),
	}
}

func TestLoopCommutingSplitsTiedGradient(t *testing.T) {
	g := traceTiedGrad(t)
	s, err := SplitGraph(g, Options{CommuteGradAccumulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.CommutedAdds == 0 {
		t.Fatal("expected at least one commuted merge add")
	}
	// Gradient of the tied weight must have two partials on different segments.
	tied := s.Grads[0]
	if len(tied.Partials) != 2 {
		t.Fatalf("tied grad partials = %d, want 2", len(tied.Partials))
	}
	if tied.Partials[0].Seg == tied.Partials[1].Seg {
		t.Fatal("partials on the same segment")
	}
	// The untied weight keeps a single partial.
	if len(s.Grads[1].Partials) != 1 {
		t.Fatalf("untied grad partials = %d", len(s.Grads[1].Partials))
	}
}

func TestLoopCommutingPreservesNumerics(t *testing.T) {
	g := traceTiedGrad(t)
	inputs := tiedInputs(11)
	want, err := interp.Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, commute := range []bool{false, true} {
		s, err := SplitGraph(g.Clone(), Options{CommuteGradAccumulation: commute})
		if err != nil {
			t.Fatalf("commute=%v: %v", commute, err)
		}
		got := runSplitSequentially(t, s, inputs)
		for i := range want {
			if !tensor.AllClose(got[i], want[i], 1e-12, 1e-12) {
				t.Fatalf("commute=%v output %d differs by %v", commute, i, tensor.MaxAbsDiff(got[i], want[i]))
			}
		}
	}
}

func TestLoopCommutingReducesInLoopTraffic(t *testing.T) {
	// Without commuting, the tied-weight merge forces a cross-segment edge
	// carrying a full gradient every microbatch. With commuting, partials
	// stay local; count cross-segment activation bytes touching grads.
	g := traceTiedGrad(t)
	edgeBytes := func(commute bool) int {
		s, err := SplitGraph(g.Clone(), Options{CommuteGradAccumulation: commute})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, cv := range s.CrossSegmentEdges() {
			total += tensor.NumElements(cv.Shape)
		}
		return total
	}
	without := edgeBytes(false)
	with := edgeBytes(true)
	if with >= without {
		t.Fatalf("loop commuting should cut cross-segment traffic: %d -> %d", without, with)
	}
}

func TestSplitRejectsUndifferentiatedGraph(t *testing.T) {
	g, err := trace.Trace("fwdonly", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 2, 2)
		h := b.PipelineYield(b.ReLU(x))
		return []*ir.Value{b.Sum(h)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitGraph(g, Options{}); err == nil {
		t.Fatal("want error for graph without backward yields")
	}
}

func TestSingleStageDegenerate(t *testing.T) {
	g := traceGradMLP(t, 1, 4)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 1 || s.Segments[0].Kind != FwdLossBwd {
		t.Fatalf("degenerate split: %d segments kind %v", len(s.Segments), s.Segments[0].Kind)
	}
	inputs := mlpGradInputs(1, 4, 99)
	want, err := interp.Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := runSplitSequentially(t, s, inputs)
	if !tensor.AllClose(got[0], want[0], 1e-12, 1e-12) {
		t.Fatal("single-stage loss differs")
	}
}

func TestSegmentGraphsVerify(t *testing.T) {
	g := traceGradMLP(t, 4, 6)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range s.Segments {
		if err := seg.Graph.Verify(); err != nil {
			t.Fatalf("segment %d: %v", seg.Index, err)
		}
		if len(seg.Graph.Eqns) == 0 {
			t.Fatalf("segment %d is empty", seg.Index)
		}
	}
}

// TestSegmentsHoldNoDeadCode: autodiff's graph computes the input gradient
// of the batch (a transpose and a matmul in stage 0's backward) that no
// output is; no segment keeps such an equation, with and without loop
// commuting, and every equation dropped is one the source graph's own DCE
// drops too — nothing a later segment or a gradient needs goes missing
// (TestSplitMatchesWholeGraph and TestLoopCommutingPreservesNumerics run the
// segments).
func TestSegmentsHoldNoDeadCode(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       *ir.Graph
		commute bool
	}{
		{"mlp", traceGradMLP(t, 4, 6), false},
		{"tied", traceTiedGrad(t), false},
		{"tied, commuted", traceTiedGrad(t), true},
	} {
		s, err := SplitGraph(c.g, Options{CommuteGradAccumulation: c.commute})
		if err != nil {
			t.Fatal(err)
		}
		kept := s.CommutedAdds
		for _, seg := range s.Segments {
			if dead := seg.Graph.Clone().DCE(); dead != 0 {
				t.Errorf("%s: segment %d holds %d dead equations:\n%s", c.name, seg.Index, dead, seg.Graph)
			}
			kept += len(seg.Graph.Eqns)
		}
		if dropped, dead := len(c.g.Eqns)-kept, c.g.Clone().DCE(); dropped == 0 || dropped != dead {
			t.Errorf("%s: segments dropped %d equations, the source graph has %d dead", c.name, dropped, dead)
		}
	}
}

// CrossSegmentEdges enumerates every (producer segment, consumer segment,
// value) activation edge — the communication JaxPP must infer.
func (s *Split) CrossSegmentEdges() []CutValue {
	var edges []CutValue
	seen := map[[2]int]bool{}
	for _, seg := range s.Segments {
		for _, cv := range seg.ActIn {
			key := [2]int{cv.ID, seg.Index}
			if seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, cv)
		}
	}
	return edges
}

// TestHoistTransposesBuildsPrologues: hoisting every weight transpose of a
// 4-stage MLP (inputs 0 and 1 are the batch, whose transposes stay) gives one
// Prologue segment per stage whose backward owes a dx — each but stage 0's —
// indexed after the loop segments and labelled with
// its stage, and the split still computes the whole graph. A segment index
// beyond the loop segments and the prologues is refused, not turned into a
// segment.
func TestHoistTransposesBuildsPrologues(t *testing.T) {
	const stages = 4
	g := traceGradMLP(t, stages, 6)
	s, err := SplitGraph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.HoistTransposes(func(param, rows int) bool { return param >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	loopSegs := 2*stages - 1
	var got []int
	for _, seg := range h.Segments[loopSegs:] {
		if seg.Kind != Prologue {
			t.Errorf("segment %d is %s, want prologue", seg.Index, seg.Kind)
		}
		got = append(got, seg.Stage)
	}
	if want := []int{3, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("prologue stages %v, want %v", got, want)
	}
	inputs := mlpGradInputs(stages, 6, 7)
	want, err := interp.Eval(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// A prologue runs ahead of the loop segments that read it.
	ordered := *h
	ordered.Segments = append(slices.Clone(h.Segments[loopSegs:]), h.Segments[:loopSegs]...)
	for i, out := range runSplitSequentially(t, &ordered, inputs) {
		if !tensor.AllClose(out, want[i], 0, 0) {
			t.Fatalf("output %d differs by %v", i, tensor.MaxAbsDiff(out, want[i]))
		}
	}

	stray := *h
	stray.EqnSeg = slices.Clone(h.EqnSeg)
	stray.EqnSeg[len(stray.EqnSeg)-1] = len(h.Segments)
	if err := stray.extractSegments(got); err == nil || !strings.Contains(err.Error(), "assigned to segment") {
		t.Errorf("a stray segment index: got %v, want a refusal", err)
	}
}
