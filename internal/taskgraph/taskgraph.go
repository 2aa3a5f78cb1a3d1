// Package taskgraph unrolls a stage-split microbatch graph under a pipeline
// schedule into one fused instruction program per actor (§4.2–§4.4 of the
// paper): it hoists step-invariant weight transposes into a once-a-step
// prologue, maps schedule entries to segment executions, infers send/receive
// pairs in global topological order (so communication cannot deadlock),
// inserts gradient accumulation, post-loop merges for commuted tied-weight
// partials, and buffer deletions.
package taskgraph

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/tensor"
)

// BufID identifies a buffer in an actor's object store. IDs are global to a
// compiled program; each actor only ever touches its own buffers.
type BufID int

// InstrKind enumerates runtime instructions.
type InstrKind int

const (
	// OpRun executes a compiled segment graph.
	OpRun InstrKind = iota
	// OpSend sends a buffer to a peer actor: it initiates the transfer and
	// does not wait for the receiver (§4.2) — the transport's doing, not the
	// actor's; only the Fig. 5 rendezvous transport blocks.
	OpSend
	// OpRecv receives a buffer from a peer actor.
	OpRecv
	// OpAccum adds Src into Dst (initializing Dst on first use).
	OpAccum
	// OpDelete reclaims a buffer of the object store where liveness says it
	// is dead (§4.3). A send ahead of it has nothing left to read: the
	// transport captured the buffer before OpSend returned.
	OpDelete
	// OpAdd computes Dst = A + B (post-loop merge of commuted partials).
	OpAdd
)

func (k InstrKind) String() string {
	switch k {
	case OpRun:
		return "run"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpAccum:
		return "accum"
	case OpDelete:
		return "delete"
	case OpAdd:
		return "add"
	}
	return "?"
}

// Instr is one instruction in an actor's program.
type Instr struct {
	Kind InstrKind

	// OpRun fields.
	Seg  int // segment index
	MB   int // microbatch; -1 for a prologue, which serves them all
	Ins  []BufID
	Outs []BufID

	// Communication / memory fields.
	Buf  BufID // OpSend/OpRecv/OpDelete subject; OpAccum source
	Dst  BufID // OpAccum / OpAdd destination
	A, B BufID // OpAdd operands
	Peer int   // OpSend destination actor / OpRecv source actor
	Tag  int   // unique send/recv matching tag

	// Last marks an OpAccum that is Buf's last use — the liveness pass put
	// Buf's OpDelete right behind it — so the runtime may move Buf into a
	// still-empty Dst instead of copying it there.
	Last bool
}

func (in Instr) String() string {
	switch in.Kind {
	case OpRun:
		return fmt.Sprintf("run(seg=%d, mb=%d, in=%v, out=%v)", in.Seg, in.MB, in.Ins, in.Outs)
	case OpSend:
		return fmt.Sprintf("send(buf=%d, to=%d, tag=%d)", in.Buf, in.Peer, in.Tag)
	case OpRecv:
		return fmt.Sprintf("recv(buf=%d, from=%d, tag=%d)", in.Buf, in.Peer, in.Tag)
	case OpAccum:
		if in.Last {
			return fmt.Sprintf("accum(dst=%d, src=%d, last)", in.Dst, in.Buf)
		}
		return fmt.Sprintf("accum(dst=%d, src=%d)", in.Dst, in.Buf)
	case OpDelete:
		return fmt.Sprintf("delete(buf=%d)", in.Buf)
	case OpAdd:
		return fmt.Sprintf("add(dst=%d, a=%d, b=%d)", in.Dst, in.A, in.B)
	}
	return "?"
}

// Placement records which actor owns a buffer.
type Placement struct {
	Actor int
	Buf   BufID
}

// Program is the compiled MPMD step: one instruction list per actor,
// dispatched in a single RPC per actor per step (§4.4).
type Program struct {
	// Split is the stage split the program runs, its prologue segments
	// included.
	Split    *stage.Split
	Schedule *schedule.Schedule

	Actors [][]Instr

	// Params[i] is the placement of graph input i (nil entry for batch
	// inputs). Tied weights used on several actors additionally appear in
	// ParamReplicas.
	Params        []*Placement
	ParamReplicas map[int][]Placement // input idx -> extra copies

	// Batch[i][mb] is the placement of per-microbatch input i (only for
	// batch input positions).
	Batch map[int][]Placement

	// Grads[gi] is where the final gradient for output gi+1 lives.
	Grads []Placement

	// Losses[mb] is where microbatch mb's loss lives.
	Losses []Placement

	NumBufs int
	NumTags int
}

// Options configures compilation.
type Options struct {
	// BatchInputs lists graph-input positions that vary per microbatch.
	BatchInputs []int
	// DisableDeletion skips the buffer-deletion pass (for ablation).
	DisableDeletion bool
	// NaiveCommOrdering reproduces the deadlock-prone schedule of the
	// paper's Fig. 5: receives are emitted immediately before the consuming
	// task instead of at production time in global topological order. With
	// synchronous rendezvous sends this deadlocks (see runtime tests);
	// JaxPP's default ordering does not.
	NaiveCommOrdering bool
}

type compiler struct {
	split *stage.Split
	sched *schedule.Schedule
	opts  Options

	prog    *Program
	nextBuf BufID
	nextTag int

	isBatch map[int]bool

	// vals maps (original value ID, mb) -> per-actor buffer placements.
	vals map[[2]int][]Placement

	// consumersOf maps original value ID -> segments consuming it.
	consumersOf map[int][]int

	// accum maps (grad partial value ID) -> accumulator placement.
	accum map[int]Placement

	// pendingRecvs defers receive instructions until just before the
	// consuming task (NaiveCommOrdering only), keyed by (segment, mb).
	pendingRecvs map[[2]int][]Instr
}

// Compile builds the MPMD program for one training step.
func Compile(split *stage.Split, sched *schedule.Schedule, opts Options) (*Program, error) {
	if sched.NumStages != split.NumStages {
		return nil, fmt.Errorf("taskgraph: schedule has %d stages, split has %d", sched.NumStages, split.NumStages)
	}
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: %w", err)
	}
	isBatch := map[int]bool{}
	for _, bi := range opts.BatchInputs {
		if bi < 0 || bi >= len(split.Source.Inputs) {
			return nil, fmt.Errorf("taskgraph: batch input %d out of range", bi)
		}
		isBatch[bi] = true
	}
	// A weight's transpose is the same for every microbatch of a step: an
	// actor whose products read it for more rows a step than the dot form of
	// a·bᵀ takes transposes it once, in its prologue.
	split, err := split.HoistTransposes(func(param, rows int) bool {
		return !isBatch[param] && tensor.HoistsTranspose(rows*sched.NumMB)
	})
	if err != nil {
		return nil, err
	}
	c := &compiler{
		split: split,
		sched: sched,
		opts:  opts,
		prog: &Program{
			Split:         split,
			Schedule:      sched,
			Actors:        make([][]Instr, sched.NumActors),
			Params:        make([]*Placement, len(split.Source.Inputs)),
			ParamReplicas: map[int][]Placement{},
			Batch:         map[int][]Placement{},
		},
		vals:         map[[2]int][]Placement{},
		consumersOf:  map[int][]int{},
		accum:        map[int]Placement{},
		isBatch:      isBatch,
		pendingRecvs: map[[2]int][]Instr{},
	}
	for _, seg := range split.Segments {
		for _, cv := range seg.ActIn {
			c.consumersOf[cv.ID] = append(c.consumersOf[cv.ID], seg.Index)
		}
	}
	if err := c.placeInputs(); err != nil {
		return nil, err
	}
	if err := c.prologues(); err != nil {
		return nil, err
	}
	if err := c.unroll(); err != nil {
		return nil, err
	}
	c.finalMerges()
	if !opts.DisableDeletion {
		c.insertDeletions()
	}
	c.prog.NumBufs = int(c.nextBuf)
	c.prog.NumTags = c.nextTag
	return c.prog, nil
}

func (c *compiler) newBuf() BufID {
	b := c.nextBuf
	c.nextBuf++
	return b
}

func (c *compiler) actorOfSeg(seg int) int {
	return c.sched.StageActor[c.split.Segments[seg].Stage]
}

// placeInputs pins every graph input on the actor of its first-use segment
// (§3.3) and pre-loop-replicates params needed on additional actors.
func (c *compiler) placeInputs() error {
	for i := range c.split.Source.Inputs {
		owner := c.actorOfSeg(c.split.InputSeg[i])
		if c.isBatch[i] {
			// One buffer per microbatch. If a batch input is consumed by
			// segments on several actors, each consuming segment's actor gets
			// its own copy placed by the driver (placement propagation to
			// the computation preceding the loop).
			actors := c.paramActors(i)
			pl := make([]Placement, c.sched.NumMB)
			for mb := 0; mb < c.sched.NumMB; mb++ {
				pl[mb] = Placement{Actor: owner, Buf: c.newBuf()}
			}
			c.prog.Batch[i] = pl
			for _, a := range actors {
				if a == owner {
					continue
				}
				return fmt.Errorf("taskgraph: batch input %d consumed on multiple actors (%d and %d); per-microbatch replication unsupported", i, owner, a)
			}
			continue
		}
		buf := c.newBuf()
		c.prog.Params[i] = &Placement{Actor: owner, Buf: buf}
		// Tied weights: replicate to other consuming actors before the loop.
		for _, a := range c.paramActors(i) {
			if a == owner {
				continue
			}
			rep := Placement{Actor: a, Buf: c.newBuf()}
			c.prog.ParamReplicas[i] = append(c.prog.ParamReplicas[i], rep)
			tag := c.nextTag
			c.nextTag++
			c.emit(owner, Instr{Kind: OpSend, Buf: buf, Peer: a, Tag: tag})
			c.emit(a, Instr{Kind: OpRecv, Buf: rep.Buf, Peer: owner, Tag: tag})
		}
	}
	return nil
}

// prologues emits the one run a step of each prologue segment on its stage's
// actor: after the pre-loop replication of tied weights, which it may read,
// and ahead of the loop — so before the actor's first receive of an
// activation, in 1F1B's fill bubble. Its outputs serve every microbatch.
func (c *compiler) prologues() error {
	for _, seg := range c.split.Segments {
		if seg.Kind != stage.Prologue {
			continue
		}
		actor := c.actorOfSeg(seg.Index)
		run := Instr{Kind: OpRun, Seg: seg.Index, MB: -1}
		for _, pi := range seg.ParamIn {
			buf, err := c.paramBufOn(pi, actor)
			if err != nil {
				return err
			}
			run.Ins = append(run.Ins, buf)
		}
		for _, id := range seg.OutIDs {
			b := c.newBuf()
			run.Outs = append(run.Outs, b)
			c.vals[[2]int{id, -1}] = []Placement{{Actor: actor, Buf: b}}
		}
		c.emit(actor, run)
	}
	return nil
}

// paramActors returns the distinct actors whose segments consume input i.
func (c *compiler) paramActors(i int) []int {
	seen := map[int]bool{}
	var out []int
	for _, seg := range c.split.Segments {
		for _, pi := range seg.ParamIn {
			if pi == i {
				a := c.actorOfSeg(seg.Index)
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}

func (c *compiler) emit(actor int, in Instr) {
	c.prog.Actors[actor] = append(c.prog.Actors[actor], in)
}

// paramBufOn returns the local buffer of input i on the given actor.
func (c *compiler) paramBufOn(i, actor int) (BufID, error) {
	if p := c.prog.Params[i]; p != nil && p.Actor == actor {
		return p.Buf, nil
	}
	for _, r := range c.prog.ParamReplicas[i] {
		if r.Actor == actor {
			return r.Buf, nil
		}
	}
	return 0, fmt.Errorf("taskgraph: input %d has no copy on actor %d", i, actor)
}
