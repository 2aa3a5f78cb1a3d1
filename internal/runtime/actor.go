package runtime

import (
	"fmt"
	"sync"

	"repro/internal/dist"
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
	scAdd   = obs.Scope("actor/add")
)

// Actor is one long-lived SPMD execution unit: it owns an object store and
// executes fused instruction programs, communicating with peers only through
// the transport.
type Actor struct {
	ID    int
	Store *Store

	// SyncSends executes sends inline on the actor's thread instead of
	// asynchronously — the blocking behaviour JaxPP avoids (§4.2). Used for
	// the Fig. 5 deadlock demonstration.
	SyncSends bool

	transport transport.Transport
	prog      []taskgraph.Instr
	segs      []*segmentExecutable

	// argBuf and outBuf are the reusable OpRun dispatch buffers, sized at
	// Load to the widest instruction. The actor executes its program
	// sequentially, so one pair serves every instruction without per-step
	// slice allocation.
	argBuf []*tensor.Tensor
	outBuf []*tensor.Tensor

	// senders holds one persistent sender worker per destination actor,
	// created at Load from the program's OpSend peers. Asynchronous sends
	// enqueue into the destination's non-blocking mailbox instead of
	// spawning a goroutine per send: the §4.2 guarantee (initiating a send
	// never blocks the actor, a slow peer stalls only its own queue) is
	// preserved by the per-destination fan-out, and the per-send goroutine
	// + closure allocations disappear from the steady-state step.
	senders map[int]*dist.Mailbox[sendItem]

	sendWG sync.WaitGroup
}

// sendItem is one queued asynchronous send: the payload plus the store
// buffer whose deferred deletion unblocks when the transfer completes.
type sendItem struct {
	tag int
	t   *tensor.Tensor
	buf taskgraph.BufID
}

// segmentExecutable is a "compiled" pipeline segment: in this reproduction
// compilation is graph verification plus closure capture; XLA's role as the
// per-task executor is played by the compiled IR program (see Cluster.Load).
// runInto writes the segment's outputs into a caller slice so steady-state
// dispatch performs no allocation; inputs are borrowed (never mutated, never
// retained).
type segmentExecutable struct {
	seg     int
	scope   obs.ScopeID // "seg/<idx>" timing scope, assigned at Load
	runInto func(outs, inputs []*tensor.Tensor) error
}

// NewActor builds an actor bound to a transport.
func NewActor(id int, tr transport.Transport) *Actor {
	return &Actor{ID: id, Store: NewStore(), transport: tr}
}

// Load installs the actor's slice of the program and its segment
// executables, and (re)provisions one sender worker per OpSend destination.
func (a *Actor) Load(prog []taskgraph.Instr, segs []*segmentExecutable) {
	a.prog = prog
	a.segs = segs
	for _, s := range segs {
		if s.scope == 0 {
			s.scope = obs.Scope(fmt.Sprintf("seg/%d", s.seg))
		}
	}
	maxIns, maxOuts := 0, 0
	peers := map[int]bool{}
	for _, in := range prog {
		if len(in.Ins) > maxIns {
			maxIns = len(in.Ins)
		}
		if len(in.Outs) > maxOuts {
			maxOuts = len(in.Outs)
		}
		if in.Kind == taskgraph.OpSend {
			peers[in.Peer] = true
		}
	}
	a.argBuf = make([]*tensor.Tensor, maxIns)
	a.outBuf = make([]*tensor.Tensor, maxOuts)
	a.Close() // retire workers from a previous Load
	a.senders = make(map[int]*dist.Mailbox[sendItem], len(peers))
	for peer := range peers {
		peer := peer
		a.senders[peer] = dist.NewMailbox(0, func(it sendItem) {
			a.transport.Send(a.ID, peer, it.tag, it.t)
			a.Store.SendDone(it.buf)
			a.sendWG.Done()
		})
	}
}

// Close retires the actor's sender workers, draining any queued sends.
// A closed actor can be re-armed by another Load.
func (a *Actor) Close() {
	for _, mb := range a.senders {
		mb.Stop()
	}
	a.senders = nil
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
		if err := a.exec(in); err != nil {
			return fmt.Errorf("runtime: actor %d pc %d (%s): %w", a.ID, pc, in, err)
		}
	}
	// Step boundary: all sends must have drained before the driver reads
	// results.
	a.sendWG.Wait()
	return nil
}

func (a *Actor) exec(in taskgraph.Instr) error {
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
		h := obs.TrackTid(se.scope, a.ID)
		err = se.runInto(outs, args)
		h.Stop()
		if err != nil {
			return err
		}
		for i, b := range in.Outs {
			a.Store.Put(b, outs[i])
		}
		clear(args)
		clear(outs)
		return nil

	case taskgraph.OpSend:
		t, err := a.Store.Get(in.Buf)
		if err != nil {
			return err
		}
		if a.SyncSends {
			a.transport.Send(a.ID, in.Peer, in.Tag, t)
			return nil
		}
		// Asynchronous send: the instruction only *initiates* the transfer;
		// the store defers deletion until completion (§4.3). The enqueue
		// into the destination's persistent sender worker never blocks.
		a.Store.SendStarted(in.Buf)
		a.sendWG.Add(1)
		a.senders[in.Peer].Put(sendItem{tag: in.Tag, t: t, buf: in.Buf})
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
		// last use.
		h := obs.TrackTid(scAccum, a.ID)
		err := a.Store.Accumulate(in.Dst, in.Buf, in.Last)
		h.Stop()
		return err

	case taskgraph.OpAdd:
		x, err := a.Store.Get(in.A)
		if err != nil {
			return err
		}
		y, err := a.Store.Get(in.B)
		if err != nil {
			return err
		}
		h := obs.TrackTid(scAdd, a.ID)
		a.Store.Put(in.Dst, tensor.Add(x, y))
		h.Stop()
		return nil

	case taskgraph.OpDelete:
		a.Store.Delete(in.Buf)
		return nil
	}
	return fmt.Errorf("unknown instruction kind %v", in.Kind)
}
