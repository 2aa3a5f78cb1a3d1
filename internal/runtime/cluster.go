package runtime

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/interp"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Cluster is the set of long-lived actors managed by the single controller
// (the driver). In the paper the driver provisions Ray actors over hosts;
// here actors are goroutines over a Transport.
type Cluster struct {
	Transport transport.Transport
	Actors    []*Actor
}

// NewCluster provisions n actors over an in-process transport.
func NewCluster(n int) *Cluster {
	tr := NewChanTransport()
	c := &Cluster{Transport: tr}
	for i := 0; i < n; i++ {
		c.Actors = append(c.Actors, NewActor(i, tr))
	}
	return c
}

// NewClusterWithTransport provisions n actors over a custom transport.
func NewClusterWithTransport(n int, tr transport.Transport) *Cluster {
	c := &Cluster{Transport: tr}
	for i := 0; i < n; i++ {
		c.Actors = append(c.Actors, NewActor(i, tr))
	}
	return c
}

// LoadOptions configures how segments are "compiled" onto actors.
type LoadOptions struct {
	// DataParallel loads the program onto this many pipeline replicas over
	// disjoint actor ranges: replica r owns actors [r·P, (r+1)·P) where P is
	// the program's actor count, the row-major layout of a
	// [("data", R), ("pipe", P)] device mesh. Peer IDs inside each replica's
	// instruction streams are offset accordingly; tags need no remapping
	// because transport matching is per (sender, receiver, tag) triple.
	// 0 or 1 loads a single replica.
	DataParallel int

	// HostActors restricts which global actors this load materializes: only
	// the listed actors get compiled segment programs, reserved store slots
	// and instruction streams. nil hosts every actor (the single-process
	// driver). A distributed rank passes its own actor ID, so a world-N
	// process carries one actor's state instead of N copies — peers are
	// reachable through the transport, not materialized locally.
	// A filtered executable steps only hosted actors (StepActor); the full
	// Step/StepInto path refuses to run.
	HostActors []int
}

// Executable is a loaded MPMD program ready for repeated Step calls — the
// returned step_fn of mesh.distributed in the paper.
type Executable struct {
	cluster  *Cluster
	prog     *taskgraph.Program
	replicas int // data-parallel replica count (>= 1)
	pp       int // actors per replica

	// hosted[actor] marks the global actors this load materialized; nil
	// means every actor is hosted (unfiltered load).
	hosted []bool

	// epilogues run on the owning actor's goroutine after its program each
	// step — the hook the driver uses to attach end-of-step collectives
	// (e.g. the data-parallel gradient all-reduce), overlapping them with
	// other actors' pipeline cooldown.
	epilogues []func(*Store) error
}

// Load installs a compiled program on the cluster, replicated over
// opts.DataParallel pipeline replicas.
func (c *Cluster) Load(prog *taskgraph.Program, opts LoadOptions) (*Executable, error) {
	replicas := opts.DataParallel
	if replicas < 1 {
		replicas = 1
	}
	pp := prog.Schedule.NumActors
	if pp*replicas != len(c.Actors) {
		return nil, fmt.Errorf("runtime: program wants %d actors × %d replicas, cluster has %d", pp, replicas, len(c.Actors))
	}
	// Hosted-actor filter: materialize only the listed global actors. The
	// hostedPos set picks which pipeline positions need compiled segments at
	// all (replicas share position programs).
	var hosted []bool
	hostedPos := make([]bool, pp)
	if opts.HostActors == nil {
		for a := range hostedPos {
			hostedPos[a] = true
		}
	} else {
		hosted = make([]bool, len(c.Actors))
		for _, a := range opts.HostActors {
			if a < 0 || a >= len(c.Actors) {
				return nil, fmt.Errorf("runtime: hosted actor %d out of range (cluster of %d)", a, len(c.Actors))
			}
			hosted[a] = true
			hostedPos[a%pp] = true
		}
	}
	// Compile each hosted pipeline position's segments once to a closure
	// program with liveness-driven buffer pooling; the programs are
	// immutable, so replicas share them.
	segsByActor := make([][]*segmentExecutable, pp)
	for a, instrs := range prog.Actors {
		if !hostedPos[a] {
			continue
		}
		needed := map[int]bool{}
		for _, in := range instrs {
			if in.Kind == taskgraph.OpRun {
				needed[in.Seg] = true
			}
		}
		for segIdx := range needed {
			seg := prog.Split.Segments[segIdx]
			run, err := interp.NewProgram(seg.Graph)
			if err != nil {
				return nil, fmt.Errorf("runtime: compiling segment %d: %w", segIdx, err)
			}
			segsByActor[a] = append(segsByActor[a], &segmentExecutable{seg: segIdx, prog: run})
		}
	}
	for r := 0; r < replicas; r++ {
		base := r * pp
		for a, instrs := range prog.Actors {
			if hosted != nil && !hosted[base+a] {
				continue
			}
			local := instrs
			if base > 0 {
				local = make([]taskgraph.Instr, len(instrs))
				copy(local, instrs)
				for i := range local {
					if local[i].Kind == taskgraph.OpSend || local[i].Kind == taskgraph.OpRecv {
						local[i].Peer += base
					}
				}
			}
			c.Actors[base+a].Store.Reserve(prog.NumBufs)
			c.Actors[base+a].Load(local, segsByActor[a])
		}
	}
	return &Executable{
		cluster:   c,
		prog:      prog,
		replicas:  replicas,
		pp:        pp,
		hosted:    hosted,
		epilogues: make([]func(*Store) error, len(c.Actors)),
	}, nil
}

// Replicas returns the data-parallel replica count.
func (e *Executable) Replicas() int { return e.replicas }

// transportErr checks the cluster transport for poisoning before a step
// begins: failing fast here turns "every send and recv of the doomed step
// times out one by one" into an immediate, attributable step error — the
// drain an elastic recovery needs before it can re-rendezvous.
func (e *Executable) transportErr() error {
	if err := e.cluster.Transport.Err(); err != nil {
		return fmt.Errorf("runtime: transport poisoned: %w", err)
	}
	return nil
}

// GradOwners returns the producing actor of each gradient output in program
// order (replica-0 global actor IDs). It is derived purely from the shared
// program metadata every rank compiles identically, so under the hosted-actor
// filter a rank learns the full owner table — who produces which gradient —
// without any peer actor existing locally. The sharded optimizer epilogue
// lays its owner-major flat layout out from exactly this table.
func (e *Executable) GradOwners() []int {
	out := make([]int, len(e.prog.Grads))
	for i, g := range e.prog.Grads {
		out[i] = g.Actor
	}
	return out
}

// Hosts reports whether this load materialized the given global actor (true
// for every actor on an unfiltered load).
func (e *Executable) Hosts(actor int) bool {
	return e.hosted == nil || (actor >= 0 && actor < len(e.hosted) && e.hosted[actor])
}

// ActorsPerReplica returns the pipeline actor count of one replica.
func (e *Executable) ActorsPerReplica() int { return e.pp }

// SetStepEpilogue installs fn to run on the given global actor's goroutine
// after its instruction program completes each step (e.g. a data-parallel
// gradient all-reduce). fn receives the actor's object store. Pass nil to
// clear.
func (e *Executable) SetStepEpilogue(actor int, fn func(*Store) error) error {
	if actor < 0 || actor >= len(e.epilogues) {
		return fmt.Errorf("runtime: epilogue actor %d out of range", actor)
	}
	e.epilogues[actor] = fn
	return nil
}

// Step runs one training step. inputs must match the original traced graph's
// inputs positionally; batch inputs carry the full global batch with leading
// dimension Replicas × NumMB × microbatch rows — replica-major — and are
// sliced per replica per microbatch by the driver. Returns the per-microbatch
// losses (replica-major, Replicas × NumMB entries) and the final gradients of
// replica 0 (after any epilogue collectives, so with a DP gradient
// all-reduce installed these are the globally synchronized gradients).
//
// A Step error poisons the transport (runActor does, with the cause): peers of
// the failed actor may have already buffered sends under tags the next step
// reuses, so a retried Step could consume a stale payload (the same reason
// NCCL aborts a communicator after a collective error), and peers blocked on
// the failed actor return at once instead of sitting out RecvTimeout receive
// by receive. Re-provision the cluster instead of retrying.
func (e *Executable) Step(inputs []*tensor.Tensor) (losses []*tensor.Tensor, grads []*tensor.Tensor, err error) {
	losses = make([]*tensor.Tensor, e.replicas*e.prog.Schedule.NumMB)
	grads = make([]*tensor.Tensor, len(e.prog.Grads))
	if err := e.StepInto(inputs, losses, grads); err != nil {
		return nil, nil, err
	}
	return losses, grads, nil
}

// StepInto is Step writing the per-microbatch losses and final gradients
// into caller-provided slices (len Replicas×NumMB and len(grads)
// respectively), mirroring interp.Program.RunInto: a driver that reuses its
// result buffers across steps runs the dispatch path without any
// driver-side slice allocation. The tensors placed into the slices follow
// the same ownership-transfer contract as Step.
func (e *Executable) StepInto(inputs, losses, grads []*tensor.Tensor) error {
	prog := e.prog
	numMB := prog.Schedule.NumMB
	if len(losses) != e.replicas*numMB {
		return fmt.Errorf("runtime: losses buffer holds %d, step produces %d", len(losses), e.replicas*numMB)
	}
	if len(grads) != len(prog.Grads) {
		return fmt.Errorf("runtime: grads buffer holds %d, step produces %d", len(grads), len(prog.Grads))
	}
	if e.hosted != nil {
		return fmt.Errorf("runtime: executable loaded with a hosted-actor filter; a filtered rank steps only its own actor via StepActor")
	}
	if err := e.transportErr(); err != nil {
		return err
	}
	if err := e.validateInputs(inputs); err != nil {
		return err
	}
	actors := e.cluster.Actors
	for r := 0; r < e.replicas; r++ {
		e.place(r, -1, inputs)
	}

	// Dispatch: one fused "RPC" per actor (§4.4), all concurrent. Each actor
	// runs its program, then its step epilogue (e.g. the DP gradient
	// all-reduce), which overlaps with peers still in pipeline cooldown.
	errs := make([]error, len(actors))
	var wg sync.WaitGroup
	for i, a := range actors {
		wg.Add(1)
		go func(i int, a *Actor) {
			defer wg.Done()
			errs[i] = e.runActor(i, a)
		}(i, a)
	}
	wg.Wait()
	// Every failure poisons and the first poison sticks: report the actor
	// whose error it carries, not a peer the poison woke.
	poison := e.cluster.Transport.Err()
	var failed error
	for _, err := range errs {
		if err != nil && (failed == nil || errors.Is(poison, err)) {
			failed = err
		}
	}
	if failed != nil {
		return failed
	}

	// Fetch results: losses replica-major, gradients from replica 0.
	// Ownership of each result buffer transfers to the caller (Store.Take),
	// so the returned tensors no longer alias store state and nothing a later
	// Step does — deletes, in-place accumulation, epilogue collectives — can
	// mutate or reclaim them under the caller.
	for r := 0; r < e.replicas; r++ {
		base := r * e.pp
		for mb, l := range prog.Losses {
			t, err := actors[base+l.Actor].Store.Take(l.Buf)
			if err != nil {
				return fmt.Errorf("runtime: replica %d loss mb %d: %w", r, mb, err)
			}
			losses[r*numMB+mb] = t
		}
	}
	for gi, g := range prog.Grads {
		t, err := actors[g.Actor].Store.Take(g.Buf)
		if err != nil {
			return fmt.Errorf("runtime: grad %d: %w", gi, err)
		}
		grads[gi] = t
	}
	return nil
}

// validateInputs checks arity, parameter shapes, and batch leading
// dimensions once per step.
func (e *Executable) validateInputs(inputs []*tensor.Tensor) error {
	prog := e.prog
	src := prog.Split.Source
	if len(inputs) != len(src.Inputs) {
		return fmt.Errorf("runtime: %d inputs for %d graph inputs", len(inputs), len(src.Inputs))
	}
	for i, p := range prog.Params {
		if p == nil {
			continue
		}
		if !inputs[i].HasShape(src.Inputs[i].Shape) {
			return fmt.Errorf("runtime: input %d shape %v, expected %v", i, inputs[i].Shape(), src.Inputs[i].Shape)
		}
	}
	numMB := prog.Schedule.NumMB
	for i := range prog.Batch {
		want := src.Inputs[i].Shape
		full := inputs[i]
		if full.Rank() == 0 || full.Dim(0) != want[0]*numMB*e.replicas {
			return fmt.Errorf("runtime: batch input %d has leading dim %v, expected %d×%d×%d", i, full.Shape(), e.replicas, numMB, want[0])
		}
	}
	return nil
}

// place prepares replica r's actors for a step: clears last step's results
// so accumulators restart, places parameters, and places the replica's
// batch shard microbatch by microbatch. only filters the pass: only < 0
// places every actor of the replica in one walk over the program (the
// in-process driver path), only >= 0 places just that per-replica actor
// index (the multi-process path, where each OS process hosts one actor).
// One function serves both paths so the indexing — especially the
// (r·numMB+mb)·rows batch-row math the bit-for-bit local-vs-distributed
// equivalence depends on — cannot diverge. Inputs must have been validated.
func (e *Executable) place(r, only int, inputs []*tensor.Tensor) {
	prog := e.prog
	src := prog.Split.Source
	numMB := prog.Schedule.NumMB
	actors := e.cluster.Actors
	base := r * e.pp
	// Clear last step's results so accumulators restart.
	for _, g := range prog.Grads {
		if only < 0 || g.Actor == only {
			actors[base+g.Actor].Store.Delete(g.Buf)
		}
	}
	for _, l := range prog.Losses {
		if only < 0 || l.Actor == only {
			actors[base+l.Actor].Store.Delete(l.Buf)
		}
	}
	// Parameters: owner copies; intra-replica tied-weight copies flow
	// through the pre-loop send/recv instructions already in the programs;
	// tensors are immutable, so replicas share storage.
	for i, p := range prog.Params {
		if p != nil && (only < 0 || p.Actor == only) {
			actors[base+p.Actor].Store.Put(p.Buf, inputs[i])
		}
	}
	// This replica's shard of the batch, microbatch by microbatch.
	for i, placements := range prog.Batch {
		want := src.Inputs[i].Shape
		full := inputs[i]
		for mb := 0; mb < numMB; mb++ {
			if only >= 0 && placements[mb].Actor != only {
				continue
			}
			row := (r*numMB + mb) * want[0]
			// Zero-copy borrowed row view: the actor reads the caller's
			// batch rows in place. The borrowed flag makes every mutating
			// path (in-place kernels, scratch recycling) refuse the
			// tensor, so caller batch data cannot be written through it.
			view := tensor.ViewRange0(full, row, row+want[0])
			actors[base+placements[mb].Actor].Store.Put(placements[mb].Buf, view)
		}
	}
}

// runActor executes one global actor's program and step epilogue. A failure
// poisons the transport with the cause before returning, so every peer
// waiting on this actor fails now and the next Step is refused.
func (e *Executable) runActor(global int, a *Actor) error {
	err := a.RunStep()
	if fn := e.epilogues[global]; err == nil && fn != nil {
		err = fn(a.Store)
	}
	if err != nil {
		err = fmt.Errorf("runtime: actor %d failed: %w", global, err)
		e.cluster.Transport.Poison(err)
	}
	return err
}

// StepActor runs one global actor's share of a step: placement, program,
// and epilogue for that actor only. It is the per-process entry point of
// the multi-process runtime (package dist), where every OS process hosts
// exactly one of the executable's actors and peers run their own shares
// concurrently over a shared wire transport. inputs carry the same full
// global batch and parameters on every process (deterministic replication);
// only the slices this actor owns are placed. Collect this actor's results
// with TakeActorResultsInto afterwards.
func (e *Executable) StepActor(actor int, inputs []*tensor.Tensor) error {
	if actor < 0 || actor >= len(e.cluster.Actors) {
		return fmt.Errorf("runtime: actor %d out of range (cluster of %d)", actor, len(e.cluster.Actors))
	}
	if !e.Hosts(actor) {
		return fmt.Errorf("runtime: actor %d is not hosted by this load (hosted-actor filter); its store and programs were never materialized", actor)
	}
	if err := e.transportErr(); err != nil {
		return err
	}
	if err := e.validateInputs(inputs); err != nil {
		return err
	}
	e.place(actor/e.pp, actor%e.pp, inputs)
	return e.runActor(actor, e.cluster.Actors[actor])
}

// ActorResults are the step outputs owned by one global actor: losses by
// global microbatch index (replica-major, as Step orders them) and its
// gradient accumulators by parameter-gradient index, as the actor's step
// epilogue left them. Every replica's actor reports its own: after a DP
// all-reduce they hold identical sums (Step returns replica 0's), after a
// reduce-only epilogue each holds the part it reduced.
type ActorResults struct {
	LossMB  []int
	Losses  []*tensor.Tensor
	GradIdx []int
	Grads   []*tensor.Tensor
}

// TakeActorResultsInto fetches (with ownership transfer, like Step) the
// losses and gradients the given global actor produced this step into res:
// its slices are truncated and refilled, so a driver that passes the same
// struct every step fetches results without per-step slice allocation
// (the StepInto counterpart for the per-actor path).
func (e *Executable) TakeActorResultsInto(actor int, res *ActorResults) error {
	if actor < 0 || actor >= len(e.cluster.Actors) {
		return fmt.Errorf("runtime: actor %d out of range (cluster of %d)", actor, len(e.cluster.Actors))
	}
	if !e.Hosts(actor) {
		return fmt.Errorf("runtime: actor %d is not hosted by this load (hosted-actor filter); it has no results to take", actor)
	}
	prog := e.prog
	numMB := prog.Schedule.NumMB
	r, a := actor/e.pp, actor%e.pp
	store := e.cluster.Actors[actor].Store
	res.LossMB = res.LossMB[:0]
	res.Losses = res.Losses[:0]
	res.GradIdx = res.GradIdx[:0]
	res.Grads = res.Grads[:0]
	for mb, l := range prog.Losses {
		if l.Actor != a {
			continue
		}
		t, err := store.Take(l.Buf)
		if err != nil {
			return fmt.Errorf("runtime: actor %d loss mb %d: %w", actor, mb, err)
		}
		res.LossMB = append(res.LossMB, r*numMB+mb)
		res.Losses = append(res.Losses, t)
	}
	for gi, g := range prog.Grads {
		if g.Actor != a {
			continue
		}
		t, err := store.Take(g.Buf)
		if err != nil {
			return fmt.Errorf("runtime: actor %d grad %d: %w", actor, gi, err)
		}
		res.GradIdx = append(res.GradIdx, gi)
		res.Grads = append(res.Grads, t)
	}
	return nil
}

// StoreStatsAll returns each actor's store statistics.
func (e *Executable) StoreStatsAll() []StoreStats {
	out := make([]StoreStats, len(e.cluster.Actors))
	for i, a := range e.cluster.Actors {
		out[i] = a.Store.Stats()
	}
	return out
}
