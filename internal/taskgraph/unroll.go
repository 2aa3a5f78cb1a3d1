package taskgraph

import (
	"fmt"
	"sort"

	"repro/internal/schedule"
	"repro/internal/stage"
)

// segOfEntry maps a schedule entry to the segment it executes, or -1 for the
// backward entry of the last stage (already fused into the forward segment,
// like the paper's f3b3 task).
func segOfEntry(e schedule.Entry, numStages int) int {
	if e.Type == schedule.Forward {
		return e.Stage
	}
	if e.Stage == numStages-1 {
		return -1
	}
	return 2*numStages - 2 - e.Stage
}

// unroll expands every schedule entry into run/send/recv/accum instructions
// in the order schedule.Replay runs the lists, a global topological order.
// Sends and the matching receives are emitted immediately after the
// producing task, which is exactly the deadlock-avoiding order of §4.2:
// receives land in the receiver's program no later than the first task
// consuming them, and every send precedes any instruction that could block
// its actor.
func (c *compiler) unroll() error {
	c.prog.Losses = make([]Placement, c.sched.NumMB)
	return c.sched.Replay(nil, func(a int, e schedule.Entry, _ float64) (float64, error) {
		return 0, c.expand(a, e)
	})
}

// localBuf returns the buffer of (value, mb) on the given actor, or of the
// prologue output that serves every microbatch.
func (c *compiler) localBuf(id, mb, actor int) (BufID, bool) {
	for _, key := range [][2]int{{id, mb}, {id, -1}} {
		for _, p := range c.vals[key] {
			if p.Actor == actor {
				return p.Buf, true
			}
		}
	}
	return 0, false
}

func (c *compiler) expand(actor int, e schedule.Entry) error {
	segIdx := segOfEntry(e, c.split.NumStages)
	if segIdx < 0 {
		return nil // backward of the last stage: fused into the forward task
	}
	seg := c.split.Segments[segIdx]
	if got := c.actorOfSeg(segIdx); got != actor {
		return fmt.Errorf("taskgraph: segment %d expected on actor %d, schedule says %d", segIdx, got, actor)
	}

	// Naive ordering (Fig. 5): flush this task's deferred receives now,
	// right before the run — the ordering that can deadlock with
	// synchronous sends.
	if c.opts.NaiveCommOrdering {
		for _, rin := range c.pendingRecvs[[2]int{segIdx, e.MB}] {
			c.emit(actor, rin)
		}
		delete(c.pendingRecvs, [2]int{segIdx, e.MB})
	}

	run := Instr{Kind: OpRun, Seg: segIdx, MB: e.MB}
	for _, pi := range seg.ParamIn {
		if c.isBatch[pi] {
			pl := c.prog.Batch[pi][e.MB]
			if pl.Actor != actor {
				return fmt.Errorf("taskgraph: batch input %d for mb %d on actor %d, needed on %d", pi, e.MB, pl.Actor, actor)
			}
			run.Ins = append(run.Ins, pl.Buf)
			continue
		}
		buf, err := c.paramBufOn(pi, actor)
		if err != nil {
			return err
		}
		run.Ins = append(run.Ins, buf)
	}
	for _, cv := range seg.ActIn {
		buf, ok := c.localBuf(cv.ID, e.MB, actor)
		if !ok {
			return fmt.Errorf("taskgraph: segment %d mb %d: activation %d not present on actor %d", segIdx, e.MB, cv.ID, actor)
		}
		run.Ins = append(run.Ins, buf)
	}
	outBufs := make([]BufID, len(seg.OutIDs))
	for i, id := range seg.OutIDs {
		b := c.newBuf()
		outBufs[i] = b
		c.vals[[2]int{id, e.MB}] = append(c.vals[[2]int{id, e.MB}], Placement{Actor: actor, Buf: b})
	}
	run.Outs = outBufs
	c.emit(actor, run)

	// Loss collection.
	if segIdx == c.split.LossSeg {
		lossID := c.split.Source.Outputs[0].ID
		if pos := c.split.OutPos(segIdx, lossID); pos >= 0 {
			c.prog.Losses[e.MB] = Placement{Actor: actor, Buf: outBufs[pos]}
		}
	}

	// Gradient accumulation: partials produced by this segment fold into
	// their per-actor accumulator right away.
	for _, gr := range c.split.Grads {
		for _, p := range gr.Partials {
			if p.Seg != segIdx {
				continue
			}
			pos := c.split.OutPos(segIdx, p.ValueID)
			if pos < 0 {
				return fmt.Errorf("taskgraph: partial %d not an output of segment %d", p.ValueID, segIdx)
			}
			acc, ok := c.accum[p.ValueID]
			if !ok {
				acc = Placement{Actor: actor, Buf: c.newBuf()}
				c.accum[p.ValueID] = acc
			}
			c.emit(actor, Instr{Kind: OpAccum, Dst: acc.Buf, Buf: outBufs[pos]})
		}
	}

	// Communication: ship each produced value to every other actor that
	// consumes it, immediately after production (§4.2 ordering).
	for i, id := range seg.OutIDs {
		sent := map[int]bool{}
		for _, cs := range c.consumersOf[id] {
			peer := c.actorOfSeg(cs)
			if peer == actor || sent[peer] {
				continue
			}
			sent[peer] = true
			tag := c.nextTag
			c.nextTag++
			c.emit(actor, Instr{Kind: OpSend, Buf: outBufs[i], Peer: peer, Tag: tag})
			rb := c.newBuf()
			recv := Instr{Kind: OpRecv, Buf: rb, Peer: actor, Tag: tag}
			if c.opts.NaiveCommOrdering {
				// Defer the receive to just before the first consuming task
				// on that peer.
				firstSeg := -1
				for _, cs2 := range c.consumersOf[id] {
					if c.actorOfSeg(cs2) == peer && (firstSeg == -1 || cs2 < firstSeg) {
						firstSeg = cs2
					}
				}
				c.pendingRecvs[[2]int{firstSeg, e.MB}] = append(c.pendingRecvs[[2]int{firstSeg, e.MB}], recv)
			} else {
				c.emit(peer, recv)
			}
			c.vals[[2]int{id, e.MB}] = append(c.vals[[2]int{id, e.MB}], Placement{Actor: peer, Buf: rb})
		}
	}
	return nil
}

// finalMerges emits the post-loop additions for commuted tied-weight
// gradients (§3.4): each stage accumulated its own partial across
// microbatches; one transfer per extra partial (instead of per microbatch)
// brings them to the weight owner's actor, where an OpAccum adds each into
// the owner's own partial in place, that partial the first operand.
func (c *compiler) finalMerges() {
	c.prog.Grads = make([]Placement, len(c.split.Grads))
	for gi, gr := range c.split.Grads {
		if len(gr.Partials) == 1 {
			c.prog.Grads[gi] = c.accum[gr.Partials[0].ValueID]
			continue
		}
		// Owner: the actor of the earliest *stage* among the partials — the
		// stage that first uses the shared weight, which is where §3.3
		// placed the weight itself.
		parts := append([]stage.GradPartial(nil), gr.Partials...)
		sort.Slice(parts, func(i, j int) bool {
			return c.split.Segments[parts[i].Seg].Stage < c.split.Segments[parts[j].Seg].Stage
		})
		owner := c.actorOfSeg(parts[0].Seg)
		cur := c.accum[parts[0].ValueID]
		for _, p := range parts[1:] {
			acc := c.accum[p.ValueID]
			src := acc.Buf
			if acc.Actor != owner {
				tag := c.nextTag
				c.nextTag++
				c.emit(acc.Actor, Instr{Kind: OpSend, Buf: acc.Buf, Peer: owner, Tag: tag})
				src = c.newBuf()
				c.emit(owner, Instr{Kind: OpRecv, Buf: src, Peer: acc.Actor, Tag: tag})
			}
			c.emit(owner, Instr{Kind: OpAccum, Dst: cur.Buf, Buf: src})
		}
		c.prog.Grads[gi] = cur
	}
}

// insertDeletions runs the buffer-liveness pass (§4.3): after each buffer's
// last local use, an OpDelete reclaims it. Long-lived buffers (weights and
// their replicas, final gradients, losses) are exempt; the driver owns their
// lifetime. An OpAccum that is its source's last use is marked Last.
func (c *compiler) insertDeletions() {
	persistent := map[BufID]bool{}
	for _, p := range c.prog.Params {
		if p != nil {
			persistent[p.Buf] = true
		}
	}
	for _, reps := range c.prog.ParamReplicas {
		for _, r := range reps {
			persistent[r.Buf] = true
		}
	}
	for _, g := range c.prog.Grads {
		persistent[g.Buf] = true
	}
	for _, l := range c.prog.Losses {
		persistent[l.Buf] = true
	}

	for a, list := range c.prog.Actors {
		lastUse := map[BufID]int{}
		written := map[BufID]int{}
		reads := func(in Instr) []BufID {
			switch in.Kind {
			case OpRun:
				return in.Ins
			case OpSend:
				return []BufID{in.Buf}
			case OpAccum:
				return []BufID{in.Buf, in.Dst}
			}
			return nil
		}
		writes := func(in Instr) []BufID {
			switch in.Kind {
			case OpRun:
				return in.Outs
			case OpRecv:
				return []BufID{in.Buf}
			case OpAccum:
				return []BufID{in.Dst}
			}
			return nil
		}
		for i, in := range list {
			for _, b := range reads(in) {
				lastUse[b] = i
			}
			for _, b := range writes(in) {
				if _, ok := written[b]; !ok {
					written[b] = i
				}
				// A write is also a liveness point: never delete before it.
				if lastUse[b] < i {
					lastUse[b] = i
				}
			}
		}
		// Batch inputs are written by the driver before the step; their last
		// use is their only read.
		byIndex := make([][]BufID, len(list))
		for b, li := range lastUse {
			if !persistent[b] {
				byIndex[li] = append(byIndex[li], b)
			}
		}
		out := make([]Instr, 0, len(list))
		for i, in := range list {
			at := len(out)
			out = append(out, in)
			cands := byIndex[i]
			sort.Slice(cands, func(x, y int) bool { return cands[x] < cands[y] })
			for _, b := range cands {
				if in.Kind == OpAccum && b == in.Buf {
					out[at].Last = true
				}
				out = append(out, Instr{Kind: OpDelete, Buf: b})
			}
		}
		c.prog.Actors[a] = out
	}
}
