package stage

import (
	"slices"

	"repro/internal/ir"
)

// HoistTransposes moves step-invariant work out of the microbatch loop: a
// transpose of a parameter that a segment runs every microbatch, and that
// hoist accepts, goes to the prologue segment of that segment's stage, which
// runs once a step ahead of the loop; the segment then reads its result as
// an input. hoist is shown the parameter's input position and the most rows
// of the products that take the transpose as their right operand (0 when
// none does). A transpose the segment ships to another
// segment stays where it is. The result is a new Split, the prologues
// indexed after the loop segments (one per stage that hoists, in the order
// the loop segments first need them); s itself when nothing is hoisted.
func (s *Split) HoistTransposes(hoist func(param, rows int) bool) (*Split, error) {
	loopSegs := 2*s.NumStages - 1
	eqnSeg := slices.Clone(s.EqnSeg)
	prologueOf := map[int]int{} // stage -> prologue segment index
	var stages []int
	for _, seg := range s.Segments {
		g := seg.Graph
		uses := g.Uses()
		for k, e := range g.Eqns {
			if e.Op != ir.OpTranspose {
				continue
			}
			param := slices.Index(g.Inputs[:len(seg.ParamIn)], e.Inputs[0])
			if param < 0 {
				continue
			}
			rows := 0
			for _, u := range uses[e.Outputs[0].ID] {
				if u == len(g.Eqns) {
					rows = -1 // a segment output: another segment reads it per microbatch
					break
				}
				if f := g.Eqns[u]; f.Op == ir.OpMatMul && f.Inputs[1] == e.Outputs[0] {
					rows = max(rows, f.Inputs[0].Shape[0])
				}
			}
			if rows < 0 || !hoist(seg.ParamIn[param], rows) {
				continue
			}
			p, ok := prologueOf[seg.Stage]
			if !ok {
				p = loopSegs + len(stages)
				prologueOf[seg.Stage] = p
				stages = append(stages, seg.Stage)
			}
			eqnSeg[seg.srcEqns[k]] = p
		}
	}
	if len(stages) == 0 {
		return s, nil
	}
	h := *s
	h.EqnSeg = eqnSeg
	if err := h.extractSegments(stages); err != nil {
		return nil, err
	}
	h.inferInputPlacement()
	return &h, nil
}
