package stage

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// extractSegments builds a standalone subgraph per segment. Segment inputs
// are ordered as: original graph inputs used by the segment (ParamIn), then
// cross-segment activations (ActIn). Segment outputs are every value
// produced in the segment consumed by a later segment, by a commuted partial,
// or by the loop outputs; equations that reach none of them are dropped.
// prologues lists the stage of each prologue segment, indexed after the
// 2S-1 loop segments (HoistTransposes; none for a fresh split).
func (s *Split) extractSegments(prologues []int) error {
	g := s.Source
	loopSegs := 2*s.NumStages - 1
	numSegs := loopSegs + len(prologues)
	prod := g.Producer()

	inputPos := make(map[int]int, len(g.Inputs)) // value ID -> input index
	for i, v := range g.Inputs {
		inputPos[v.ID] = i
	}

	// Needed outputs per value: graph outputs (loss) and grad partials.
	needed := map[int]bool{}
	if len(g.Outputs) > 0 {
		needed[g.Outputs[0].ID] = true
	}
	for _, gr := range s.Grads {
		for _, p := range gr.Partials {
			needed[p.ValueID] = true
		}
	}

	segEqns := make([][]int, numSegs)
	for i, sg := range s.EqnSeg {
		if sg < 0 {
			continue // removed by loop commuting
		}
		if sg >= numSegs {
			return fmt.Errorf("stage: eqn %d assigned to segment %d of %d", i, sg, numSegs)
		}
		segEqns[sg] = append(segEqns[sg], i)
	}

	valueByID := map[int]*ir.Value{}
	for _, v := range g.Inputs {
		valueByID[v.ID] = v
	}
	for _, e := range g.Eqns {
		for _, o := range e.Outputs {
			valueByID[o.ID] = o
		}
	}

	s.Segments = make([]*Segment, numSegs)
	for si := 0; si < numSegs; si++ {
		seg := &Segment{Index: si}
		switch {
		case si >= loopSegs:
			seg.Stage, seg.Kind = prologues[si-loopSegs], Prologue
		case si == s.NumStages-1:
			seg.Stage, seg.Kind = si, FwdLossBwd
		case si < s.NumStages:
			seg.Stage, seg.Kind = si, Fwd
		default:
			seg.Stage, seg.Kind = StageOfSegment(si, s.NumStages), Bwd
		}

		sub := ir.NewGraph(fmt.Sprintf("%s.seg%d", g.Name, si))
		local := map[int]*ir.Value{} // original value ID -> sub value

		// Collect the segment's external needs first (deterministic order).
		var paramIn []int
		var actIn []CutValue
		seenIn := map[int]bool{}
		for _, ei := range segEqns[si] {
			for _, in := range g.Eqns[ei].Inputs {
				if seenIn[in.ID] {
					continue
				}
				if pi, ok := inputPos[in.ID]; ok {
					seenIn[in.ID] = true
					paramIn = append(paramIn, pi)
					continue
				}
				p := prod[in.ID]
				if p < 0 {
					return fmt.Errorf("stage: value %s has no producer and is not an input", in)
				}
				if s.EqnSeg[p] != si {
					if s.EqnSeg[p] < 0 {
						return fmt.Errorf("stage: segment %d consumes commuted value %s", si, in)
					}
					seenIn[in.ID] = true
					from := s.EqnSeg[p]
					actIn = append(actIn, CutValue{ID: in.ID, FromSeg: from, Shape: in.Shape})
				}
			}
		}
		sort.Ints(paramIn)
		sort.Slice(actIn, func(a, b int) bool { return actIn[a].ID < actIn[b].ID })

		for _, pi := range paramIn {
			orig := g.Inputs[pi]
			local[orig.ID] = sub.AddInput(orig.Shape, orig.Name)
		}
		for _, cv := range actIn {
			orig := valueByID[cv.ID]
			local[orig.ID] = sub.AddInput(orig.Shape, orig.Name)
		}

		// Re-emit the segment's equations.
		srcOf := map[*ir.Equation]int{}
		for _, ei := range segEqns[si] {
			e := g.Eqns[ei]
			ins := make([]*ir.Value, len(e.Inputs))
			for j, in := range e.Inputs {
				lv, ok := local[in.ID]
				if !ok {
					return fmt.Errorf("stage: segment %d: operand %s unavailable", si, in)
				}
				ins[j] = lv
			}
			out, err := sub.Emit(e.Op, e.Attrs, ins...)
			if err != nil {
				return fmt.Errorf("stage: segment %d re-emit: %w", si, err)
			}
			local[e.Outputs[0].ID] = out
			srcOf[sub.Eqns[len(sub.Eqns)-1]] = ei
		}

		// Outputs: values produced here needed elsewhere — by a later
		// segment, or by a loop segment where this is a prologue.
		usedLater := map[int]bool{}
		for sj := 0; sj < numSegs; sj++ {
			if sj == si {
				continue
			}
			for _, ej := range segEqns[sj] {
				for _, in := range g.Eqns[ej].Inputs {
					p, ok := prod[in.ID]
					if ok && p >= 0 && s.EqnSeg[p] == si {
						usedLater[in.ID] = true
					}
				}
			}
		}
		var outIDs []int
		for id := range usedLater {
			outIDs = append(outIDs, id)
		}
		for id := range needed {
			p, ok := prod[id]
			if ok && p >= 0 && s.EqnSeg[p] == si && !usedLater[id] {
				outIDs = append(outIDs, id)
			}
		}
		sort.Ints(outIDs)
		outs := make([]*ir.Value, len(outIDs))
		for i, id := range outIDs {
			lv, ok := local[id]
			if !ok {
				return fmt.Errorf("stage: segment %d: output value %d not computed", si, id)
			}
			outs[i] = lv
		}
		sub.SetOutputs(outs...)
		// Autodiff emits the cotangent of every operand, wanted or not — the
		// input gradient of the batch, a transpose and a matmul per
		// microbatch — and only now is it fixed what this segment owes anyone.
		// Per segment, not on the source graph: there DCE takes the backward
		// yield of a parameter-free first stage and the split no longer
		// pairs its yields. Inputs stay, so no buffer, send or tag moves.
		sub.DCE()
		if err := sub.Verify(); err != nil {
			return fmt.Errorf("stage: segment %d invalid: %w", si, err)
		}
		seg.Graph = sub
		seg.ParamIn = paramIn
		seg.ActIn = actIn
		seg.OutIDs = outIDs
		for _, e := range sub.Eqns {
			seg.srcEqns = append(seg.srcEqns, srcOf[e])
		}
		s.Segments[si] = seg
	}
	return nil
}

// inferInputPlacement assigns each original graph input to the segment of its
// first use (§3.3: inputs are pinned where the pipeline first needs them; the
// driver materializes them there before the loop).
func (s *Split) inferInputPlacement() {
	s.InputSeg = make([]int, len(s.Source.Inputs))
	for i := range s.InputSeg {
		s.InputSeg[i] = -1
	}
	for _, seg := range s.Segments {
		for _, pi := range seg.ParamIn {
			if s.InputSeg[pi] == -1 || seg.Index < s.InputSeg[pi] {
				s.InputSeg[pi] = seg.Index
			}
		}
	}
	// Inputs never used anywhere default to segment 0.
	for i, sg := range s.InputSeg {
		if sg == -1 {
			s.InputSeg[i] = 0
		}
	}
}

// OutPos returns the position of original value id in segment si's outputs,
// or -1.
func (s *Split) OutPos(si, id int) int {
	for i, oid := range s.Segments[si].OutIDs {
		if oid == id {
			return i
		}
	}
	return -1
}
