// Package stage implements the JaxPP compiler front half: splitting a traced
// and differentiated microbatch graph into pipeline-stage segments at the
// pipeline_yield boundaries, inferring the placement of computations and
// loop inputs/outputs (§3.3 of the paper), and the loop-commuting rewrite for
// shared-weight gradient accumulation (§3.4).
package stage

import (
	"fmt"

	"repro/internal/ir"
)

// Kind classifies a segment.
type Kind int

const (
	// Fwd is a pure forward stage segment.
	Fwd Kind = iota
	// FwdLossBwd is the fused last-stage segment: forward of the final stage,
	// the loss, and the backward of the final stage (the "f3b3" task in the
	// paper's Fig. 3).
	FwdLossBwd
	// Bwd is a pure backward stage segment.
	Bwd
	// Prologue is the once-a-step segment of a stage: work HoistTransposes
	// moved out of the microbatch loop, run ahead of it.
	Prologue
)

func (k Kind) String() string {
	switch k {
	case Fwd:
		return "fwd"
	case FwdLossBwd:
		return "fwd_loss_bwd"
	case Bwd:
		return "bwd"
	case Prologue:
		return "prologue"
	}
	return "?"
}

// CutValue is a value crossing a segment boundary.
type CutValue struct {
	ID      int   // value ID in the original graph
	FromSeg int   // producing segment
	Shape   []int // element shape (for buffer sizing)
}

// Segment is one schedulable unit of the microbatch computation.
type Segment struct {
	Index int  // 0..2S-2 in dataflow order, then the prologues
	Stage int  // forward stage this segment belongs to (mirrored for bwd)
	Kind  Kind // fwd / fused / bwd / prologue

	Graph *ir.Graph // extracted subgraph

	// ParamIn lists original graph-input positions consumed by this segment,
	// in the order they appear as the leading inputs of Graph.
	ParamIn []int
	// ActIn lists cross-segment activation inputs, in the order they appear
	// as the trailing inputs of Graph.
	ActIn []CutValue
	// OutIDs lists the original value IDs of Graph's outputs: every value
	// produced here that a later segment or the loop output consumes.
	OutIDs []int

	// srcEqns[k] is the index in Split.Source.Eqns of Graph.Eqns[k].
	srcEqns []int
}

// GradPartial is one per-stage contribution to a (possibly shared-weight)
// gradient after loop commuting.
type GradPartial struct {
	ValueID int // value ID of the partial inside the microbatch graph
	Seg     int // segment producing it
}

// GradOutput describes one gradient output of the microbatch graph. After
// loop commuting a tied-weight gradient has several partials, summed once
// after the accumulation loop instead of per microbatch.
type GradOutput struct {
	OutputIdx int // index into the original graph outputs
	Partials  []GradPartial
}

// Split is the result of stage splitting a microbatch grad graph.
type Split struct {
	Source    *ir.Graph
	NumStages int
	Segments  []*Segment

	// EqnSeg[i] is the segment index assigned to Source.Eqns[i]; -1 marks
	// equations removed by loop commuting.
	EqnSeg []int

	// InputSeg[i] is the segment whose actor input i is placed on (first
	// use), per the placement-inference heuristic of §3.3.
	InputSeg []int

	// LossSeg is the segment producing output 0 (the loss).
	LossSeg int

	// Grads describes outputs 1..N (the gradients), including commuted
	// partials for shared weights.
	Grads []GradOutput

	// CommutedAdds counts merge additions moved out of the loop by §3.4.
	CommutedAdds int
}

// StageOfSegment maps a segment index to its pipeline stage given S forward
// stages: segments 0..S-1 are forward (the last fused with loss+backward),
// segments S..2S-2 are backward stages S-2..0.
func StageOfSegment(seg, numStages int) int {
	if seg < numStages {
		return seg
	}
	return 2*numStages - 2 - seg
}

// Options configures the splitter.
type Options struct {
	// CommuteGradAccumulation enables the §3.4 loop-commuting rewrite.
	CommuteGradAccumulation bool
}

// SplitGraph splits a differentiated microbatch graph (outputs: loss followed
// by gradients) into pipeline segments.
func SplitGraph(g *ir.Graph, opts Options) (*Split, error) {
	if err := g.Verify(); err != nil {
		return nil, fmt.Errorf("stage: input graph invalid: %w", err)
	}
	fwdY, bwdY := g.YieldBoundaries()
	if len(fwdY) != len(bwdY) {
		return nil, fmt.Errorf("stage: %d forward yields but %d backward yields; differentiate the graph first", len(fwdY), len(bwdY))
	}
	numStages := len(fwdY) + 1
	numSegs := 2*numStages - 1

	// Boundaries in equation order: forward yields (ascending) then backward
	// yields (autodiff emits them in reverse stage order).
	boundaries := append(append([]int{}, fwdY...), bwdY...)
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			return nil, fmt.Errorf("stage: yield boundaries out of order")
		}
	}

	merges := findMergeAdds(g)
	seg := assignSegments(g, boundaries, numSegs, merges)

	s := &Split{Source: g, NumStages: numStages, EqnSeg: seg}

	if err := checkSegConsistency(g, seg); err != nil {
		return nil, err
	}

	// Loop commuting (§3.4): replace merged tied-weight gradients with
	// per-stage partials.
	prod := g.Producer()
	s.Grads = make([]GradOutput, 0, len(g.Outputs)-1)
	commuted := map[int]bool{} // eqn index -> removed merge add
	for oi := 1; oi < len(g.Outputs); oi++ {
		out := g.Outputs[oi]
		var partials []GradPartial
		if opts.CommuteGradAccumulation {
			partials = commutePartials(g, prod, seg, out, commuted)
		} else {
			partials = []GradPartial{{ValueID: out.ID, Seg: valueSeg(prod, seg, out.ID)}}
		}
		s.Grads = append(s.Grads, GradOutput{OutputIdx: oi, Partials: partials})
	}
	s.CommutedAdds = len(commuted)
	for ei := range commuted {
		s.EqnSeg[ei] = -1
	}
	if len(g.Outputs) > 0 {
		s.LossSeg = valueSeg(prod, s.EqnSeg, g.Outputs[0].ID)
	}

	if err := s.extractSegments(nil); err != nil {
		return nil, err
	}
	s.inferInputPlacement()
	return s, nil
}

// findMergeAdds structurally identifies gradient-merge additions: adds whose
// results feed nothing but graph outputs or other merge adds. These are the
// "gradient merging operations that do not belong to any function" of §3.2;
// the placement pass must not pull partial-gradient producers toward them.
func findMergeAdds(g *ir.Graph) map[int]bool {
	prod := g.Producer()
	uses := g.Uses()
	merge := map[int]bool{}
	var visit func(vid int)
	visit = func(vid int) {
		p, ok := prod[vid]
		if !ok || p < 0 {
			return
		}
		e := g.Eqns[p]
		if e.Op != ir.OpAdd || len(e.Inputs) != 2 {
			return
		}
		for _, u := range uses[vid] {
			if u == len(g.Eqns) {
				continue
			}
			if !merge[u] {
				return
			}
		}
		merge[p] = true
		visit(e.Inputs[0].ID)
		visit(e.Inputs[1].ID)
	}
	for oi := 1; oi < len(g.Outputs); oi++ {
		visit(g.Outputs[oi].ID)
	}
	return merge
}

// assignSegments implements the placement heuristic of §3.3: each yield's
// backward slice claims its unclaimed ancestors; remaining equations are
// placed as close to their uses as dependencies allow. Consumers in merges
// are ignored as placement constraints so partial gradients stay on the
// stage that produced them.
func assignSegments(g *ir.Graph, boundaries []int, numSegs int, merges map[int]bool) []int {
	n := len(g.Eqns)
	seg := make([]int, n)
	for i := range seg {
		seg[i] = -1
	}
	prod := g.Producer()

	// Pass 1: for each boundary j (segment j), claim unclaimed ancestors.
	for j, bIdx := range boundaries {
		var stack []int
		stack = append(stack, bIdx)
		for len(stack) > 0 {
			ei := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seg[ei] != -1 {
				continue
			}
			seg[ei] = j
			for _, in := range g.Eqns[ei].Inputs {
				p := prod[in.ID]
				if p >= 0 && seg[p] == -1 {
					stack = append(stack, p)
				}
			}
		}
	}

	// Pass 2 (forward): the earliest segment each equation's operands permit
	// (yield operands become available one segment later). For unclaimed
	// producers the bound chains through their own earliest segment, which is
	// already computed because equations are in definition order.
	early := make([]int, n)
	avail := func(vid int) int {
		p := prod[vid]
		if p < 0 {
			return 0
		}
		sp := seg[p]
		if sp < 0 {
			sp = early[p]
		}
		if g.Eqns[p].Op == ir.OpYield {
			return sp + 1
		}
		return sp
	}
	for i, e := range g.Eqns {
		lo := 0
		for _, in := range e.Inputs {
			if a := avail(in.ID); a > lo {
				lo = a
			}
		}
		if seg[i] >= 0 {
			early[i] = seg[i]
		} else {
			early[i] = lo
		}
	}

	// Pass 3 (reverse): place unclaimed equations as late as their consumers
	// allow ("scheduled closer to its use, to minimize communication").
	// Equations consumed only by the loop outputs (gradient contractions, the
	// loss itself) stay where their operands live: gradients accumulate on
	// the actor that produced them.
	uses := g.Uses()
	for i := n - 1; i >= 0; i-- {
		if seg[i] != -1 {
			continue
		}
		late := -1
		for _, o := range g.Eqns[i].Outputs {
			for _, u := range uses[o.ID] {
				if u == n || merges[u] {
					continue // graph output / merge add: no upper constraint
				}
				us := seg[u]
				if us == -1 {
					us = early[u] // consumer itself unassigned yet: bound by its earliest
				}
				if late == -1 || us < late {
					late = us
				}
			}
		}
		if late == -1 || late < early[i] {
			late = early[i]
		}
		seg[i] = late
	}
	return seg
}

// checkSegConsistency verifies that every equation's operands are available
// at or before its segment.
func checkSegConsistency(g *ir.Graph, seg []int) error {
	prod := g.Producer()
	for i, e := range g.Eqns {
		for _, in := range e.Inputs {
			p := prod[in.ID]
			if p < 0 {
				continue
			}
			a := seg[p]
			if g.Eqns[p].Op == ir.OpYield {
				a++
			}
			if a > seg[i] {
				return fmt.Errorf("stage: eqn %d (%s, seg %d) consumes %s available only at seg %d", i, e.Op, seg[i], in, a)
			}
		}
	}
	return nil
}

func valueSeg(prod map[int]int, seg []int, vid int) int {
	p, ok := prod[vid]
	if !ok || p < 0 {
		return 0
	}
	if seg[p] < 0 {
		return 0
	}
	return seg[p]
}

// commutePartials walks the gradient-merge addition tree above a gradient
// output. An addition whose operands come from different segments is a
// cross-stage merge: it is removed from the loop body and its leaves become
// separate loop-carried partial gradients (§3.4).
func commutePartials(g *ir.Graph, prod map[int]int, seg []int, out *ir.Value, commuted map[int]bool) []GradPartial {
	uses := g.Uses()
	var leaves []GradPartial
	var walk func(vid int) // appends leaves for subtree at vid
	walk = func(vid int) {
		p := prod[vid]
		if p >= 0 && g.Eqns[p].Op == ir.OpAdd && len(g.Eqns[p].Inputs) == 2 {
			a, b := g.Eqns[p].Inputs[0], g.Eqns[p].Inputs[1]
			sa := valueSeg(prod, seg, a.ID)
			sb := valueSeg(prod, seg, b.ID)
			// Only commute cross-segment merges whose result feeds nothing
			// except further merges / the graph output.
			if sa != sb && soleUseIsMergeOrOutput(g, uses, vid, commuted) {
				commuted[p] = true
				walk(a.ID)
				walk(b.ID)
				return
			}
		}
		leaves = append(leaves, GradPartial{ValueID: vid, Seg: valueSeg(prod, seg, vid)})
	}
	walk(out.ID)
	return leaves
}

func soleUseIsMergeOrOutput(g *ir.Graph, uses map[int][]int, vid int, commuted map[int]bool) bool {
	for _, u := range uses[vid] {
		if u == len(g.Eqns) {
			continue // graph output
		}
		// The walk is top-down, so a use inside the merge tree has already
		// been commuted. Any other use means the merged value is genuinely
		// needed inside the loop and must not be removed.
		if !commuted[u] {
			return false
		}
	}
	return true
}
