package runtime

import (
	"fmt"
	"slices"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Profiling scopes for the actor step loop. Spans are attributed to the
// actor's ID as the trace lane, so an executed Chrome trace reads like the
// Fig. 2 per-actor timeline.
var (
	scRecv  = obs.Scope("actor/recv")
	scAccum = obs.Scope("actor/accum")
)

// Actor is one long-lived execution unit over one device: it owns an object
// store and executes fused instruction programs, communicating with peers
// only through the transport.
type Actor struct {
	ID    int
	Store *Store

	transport transport.Transport
	prog      []taskgraph.Instr
	segs      []*segmentExecutable

	// argBuf, outBuf and accBuf are the reusable OpRun dispatch buffers,
	// sized at Load to the widest instruction. The actor executes its
	// program sequentially, so one set serves every instruction without
	// per-step slice allocation.
	argBuf []*tensor.Tensor
	outBuf []*tensor.Tensor
	accBuf []*tensor.Tensor

	// folds[pc] lists the OpAccums that the OpRun at pc may compute straight
	// into their accumulators (see Load); folded[pc] marks an OpAccum whose
	// run did so this step, which then has nothing left to do.
	folds  [][]fold
	folded []bool
}

// fold is an OpAccum behind an OpRun, with only deletes between them, that
// is its source's last use: output out of the run adds into buffer dst, and
// the OpAccum is instruction pc.
type fold struct {
	out, pc int
	dst     taskgraph.BufID
}

// segmentExecutable is a "compiled" pipeline segment: XLA's role as the
// per-task executor is played by the compiled IR program (see Cluster.Load).
// Its RunInto writes the segment's outputs into a caller slice so
// steady-state dispatch performs no allocation; inputs are borrowed (never
// mutated, never retained).
type segmentExecutable struct {
	seg   int
	scope obs.ScopeID // "seg/<idx>" timing scope, assigned at Load
	prog  *interp.Program
}

// NewActor builds an actor bound to a transport.
func NewActor(id int, tr transport.Transport) *Actor {
	return &Actor{ID: id, Store: NewStore(), transport: tr}
}

// Load installs the actor's slice of the program and its segment
// executables.
func (a *Actor) Load(prog []taskgraph.Instr, segs []*segmentExecutable) {
	a.prog = prog
	a.segs = segs
	for _, s := range segs {
		if s.scope == 0 {
			s.scope = obs.Scope(fmt.Sprintf("seg/%d", s.seg))
		}
	}
	maxIns, maxOuts := 0, 0
	for _, in := range prog {
		if len(in.Ins) > maxIns {
			maxIns = len(in.Ins)
		}
		if len(in.Outs) > maxOuts {
			maxOuts = len(in.Outs)
		}
	}
	a.argBuf = make([]*tensor.Tensor, maxIns)
	a.outBuf = make([]*tensor.Tensor, maxOuts)
	a.accBuf = make([]*tensor.Tensor, maxOuts)
	a.folds = make([][]fold, len(prog))
	a.folded = make([]bool, len(prog))
	for pc, in := range prog {
		if in.Kind != taskgraph.OpRun {
			continue
		}
	scan:
		for j := pc + 1; j < len(prog); j++ {
			switch next := prog[j]; {
			case next.Kind == taskgraph.OpDelete:
			case next.Kind == taskgraph.OpAccum && next.Last && slices.Contains(in.Outs, next.Buf):
				a.folds[pc] = append(a.folds[pc], fold{out: slices.Index(in.Outs, next.Buf), pc: j, dst: next.Dst})
			default:
				break scan
			}
		}
	}
}

func (a *Actor) segment(idx int) (*segmentExecutable, error) {
	for _, s := range a.segs {
		if s.seg == idx {
			return s, nil
		}
	}
	return nil, fmt.Errorf("runtime: actor %d has no executable for segment %d", a.ID, idx)
}

// RunStep executes the actor's program for one training step. It is the body
// of the single fused RPC of §4.4: all control flow for the step happens here
// with no further driver round trips.
func (a *Actor) RunStep() error {
	for pc, in := range a.prog {
		if err := a.exec(pc, in); err != nil {
			return fmt.Errorf("runtime: actor %d pc %d (%s): %w", a.ID, pc, in, err)
		}
	}
	return nil
}

func (a *Actor) exec(pc int, in taskgraph.Instr) error {
	switch in.Kind {
	case taskgraph.OpRun:
		se, err := a.segment(in.Seg)
		if err != nil {
			return err
		}
		args := a.argBuf[:len(in.Ins)]
		for i, b := range in.Ins {
			t, err := a.Store.Get(b)
			if err != nil {
				return err
			}
			args[i] = t
		}
		outs := a.outBuf[:len(in.Outs)]
		// A gradient partial whose accumulator already holds an earlier
		// microbatch's is computed straight into it: the segment leaves
		// that output nil, and its OpAccum is done.
		var accs []*tensor.Tensor
		if a.folds[pc] != nil {
			accs = a.accBuf[:len(in.Outs)]
			for _, f := range a.folds[pc] {
				accs[f.out] = a.Store.lookup(f.dst)
			}
		}
		h := obs.TrackTid(se.scope, a.ID)
		err = se.prog.RunAccInto(outs, args, accs)
		h.Stop()
		if err != nil {
			return err
		}
		for i, b := range in.Outs {
			if outs[i] != nil {
				a.Store.Put(b, outs[i])
			}
		}
		for _, f := range a.folds[pc] {
			a.folded[f.pc] = outs[f.out] == nil
		}
		clear(args)
		clear(outs)
		clear(accs)
		return nil

	case taskgraph.OpSend:
		t, err := a.Store.Get(in.Buf)
		if err != nil {
			return err
		}
		// The instruction only *initiates* the transfer (§4.2): not waiting
		// for the receiver is the transport's property — a capacity-1
		// mailbox in process, a per-peer sender worker on the wire — and
		// only the Fig. 5 rendezvous transport blocks here, by design. When
		// Send returns the transport has captured t and the store still owns
		// it, so the OpDelete liveness places after this send recycles it with
		// no transfer to wait for (§4.3).
		a.transport.Send(a.ID, in.Peer, in.Tag, t)
		return nil

	case taskgraph.OpRecv:
		// Blocking receive: the span is the actor's per-microbatch idle
		// (queue) time waiting on an upstream peer.
		h := obs.TrackTid(scRecv, a.ID)
		t, err := a.transport.Recv(a.ID, in.Peer, in.Tag)
		h.Stop()
		if err != nil {
			return err
		}
		a.Store.Put(in.Buf, t)
		return nil

	case taskgraph.OpAccum:
		// In-place gradient accumulation: the store mutates its private
		// accumulator instead of allocating a fresh sum every microbatch,
		// and the first microbatch's gradient moves in when this is its
		// last use. A later one's run has usually added it already.
		if a.folded[pc] {
			a.folded[pc] = false
			return nil
		}
		h := obs.TrackTid(scAccum, a.ID)
		err := a.Store.Accumulate(in.Dst, in.Buf, in.Last)
		h.Stop()
		return err

	case taskgraph.OpDelete:
		a.Store.Delete(in.Buf)
		return nil
	}
	return fmt.Errorf("unknown instruction kind %v", in.Kind)
}
