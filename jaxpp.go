// Package jaxpp is a Go reproduction of "Scaling Deep Learning Training with
// MPMD Pipeline Parallelism" (JaxPP, MLSys 2025): a compiler and
// single-controller MPMD runtime for pipeline-parallel gradient-accumulation
// training.
//
// The programming model mirrors the paper's Fig. 4: a model is written once
// as a microbatch loss function against a tracing Builder, stage boundaries
// are marked with PipelineYield, and a RemoteMesh compiles the function under
// a user-chosen pipeline schedule into one fused program per actor, executed
// with a single dispatch per actor per step.
//
//	mesh := jaxpp.NewRemoteMesh(3)              // 3 actors
//	step, err := mesh.Compile(jaxpp.CompileSpec{
//	    Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
//	        h := b.ReLU(b.MatMul(mb[0], params[0]))
//	        h = b.PipelineYield(h)
//	        h = b.ReLU(b.MatMul(h, params[1]))
//	        h = b.PipelineYield(h)
//	        return b.CrossEntropy(b.MatMul(h, params[2]), mb[1])
//	    },
//	    ParamShapes: [][]int{{64, 64}, {64, 64}, {64, 64}},
//	    BatchShapes: [][]int{{8, 64}, {8, 64}}, // per-microbatch shapes
//	    Schedule:    jaxpp.OneFOneB(3, 8),
//	})
//	losses, grads, err := step.Step(params, batch)
//
// Performance experiments against the paper's evaluation (Figs. 6–10,
// Table 1) run on the calibrated cluster simulator; see SimulateJaxPP and
// cmd/jaxpp-bench.
package jaxpp

import (
	"fmt"
	"time"

	"repro/internal/autodiff"
	"repro/internal/collective"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Value is a symbolic tensor handle produced during tracing.
type Value = ir.Value

// Builder records model operations during tracing (the jax.make_jaxpr role).
type Builder = trace.Builder

// Tensor is a dense float64 array.
type Tensor = tensor.Tensor

// NewTensor returns a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice builds a tensor from data with the given shape.
func TensorFromSlice(data []float64, shape ...int) (*Tensor, error) {
	return tensor.FromSlice(data, shape...)
}

// RNG is a deterministic random generator for initialization.
type RNG = tensor.RNG

// NewRNG returns a seeded generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// Schedule assigns pipeline tasks to actors (§4.2 of the paper).
type Schedule = schedule.Schedule

// ScheduleEntry is one Task(i, ty, stage) element of a user-defined schedule.
type ScheduleEntry = schedule.Entry

// GPipe returns the GPipe schedule (all forwards, then all backwards).
func GPipe(actors, microbatches int) *Schedule { return schedule.GPipe(actors, microbatches) }

// OneFOneB returns the 1F1B schedule (Narayanan et al. 2019).
func OneFOneB(actors, microbatches int) *Schedule { return schedule.OneFOneB(actors, microbatches) }

// Interleaved1F1B returns the interleaved 1F1B schedule with the given
// circular repeat (stages per actor).
func Interleaved1F1B(actors, microbatches, repeat int) (*Schedule, error) {
	return schedule.Interleaved1F1B(actors, microbatches, repeat)
}

// CustomSchedule builds a user-defined schedule from per-actor task lists,
// validating executability — arbitrary MPMD schedules are first-class,
// exactly as in §4.2.
func CustomSchedule(name string, numStages, numMB int, actors [][]ScheduleEntry) (*Schedule, error) {
	return schedule.FromLists(name, numStages, numMB, actors)
}

// LossFn is a traced microbatch loss: given symbolic parameters and one
// microbatch, it returns the scalar loss. Calls to b.PipelineYield mark
// pipeline-stage boundaries.
type LossFn func(b *Builder, params []*Value, microbatch []*Value) *Value

// CompileSpec describes one distributed training step to compile.
type CompileSpec struct {
	// Loss is the microbatch loss function (auto-differentiated by the
	// library; see accumulate_grads in §3.1).
	Loss LossFn
	// ParamShapes are the model parameter shapes (pinned on actors by
	// placement inference, §3.3).
	ParamShapes [][]int
	// BatchShapes are the *per-microbatch* input shapes; Step receives the
	// full batch with leading dims multiplied by the schedule's microbatch
	// count and slices it.
	BatchShapes [][]int
	// Schedule chooses the pipeline schedule; its stage count must equal
	// 1 + number of PipelineYield calls in Loss.
	Schedule *Schedule
	// CommuteGradAccumulation enables the §3.4 loop-commuting rewrite for
	// shared (tied) weights.
	CommuteGradAccumulation bool
	// DisableBufferDeletion turns off the §4.3 liveness pass (ablation).
	DisableBufferDeletion bool
	// DataParallel composes pipeline parallelism with this many data-parallel
	// pipeline replicas over a [("data", R), ("pipe", P)] actor mesh — the
	// DP×PP composition the paper scales to hundreds of GPUs (§5). The mesh
	// must hold DataParallel × Schedule.NumActors actors. Each replica
	// processes its own shard of the global batch; at step end the actors
	// owning gradients run a bucketed ring all-reduce across replicas on the
	// executable collective engine, overlapping with pipeline cooldown on
	// other actors. Step then returns globally summed gradients — identical
	// semantics to a single pipeline accumulating R × NumMB microbatches.
	// 0 or 1 disables.
	DataParallel int
	// DPBucketBytes caps the gradient-fusion bucket size of the DP
	// all-reduce (default collective.DefaultBucketBytes).
	DPBucketBytes int
	// GradSync, when set, runs in place of the DP all-reduce as the step
	// epilogue of every hosted actor that produces gradients, for any replica
	// count (one included): on the actor's own goroutine as soon as its
	// program ends, so it overlaps pipeline cooldown on other actors, with
	// the actor's global ID and its gradient accumulators in program order.
	// The accumulators are the actor's to mutate; TakeActorResultsInto hands them
	// out as GradSync left them, and Step's returned gradients are replica
	// 0's in that state. distrun installs the reduce half of its stage-local
	// step epilogue here.
	GradSync func(actor int, grads []*Tensor) error
	// HostActors restricts which global actors this process materializes
	// (stores, compiled segment programs, DP-sync communicators). nil hosts
	// all. A distributed rank passes its own actor ID so memory and compile
	// time stay O(1) in the world size; the resulting TrainStep steps only
	// hosted actors (StepActor) — the full Step path refuses to run.
	HostActors []int
}

// RemoteMesh provisions a cluster of long-lived actors (the paper's
// RemoteMesh). Actors run as goroutines over an in-process transport.
type RemoteMesh struct {
	cluster *runtime.Cluster
}

// NewRemoteMesh provisions actors on an in-process transport.
func NewRemoteMesh(actors int) *RemoteMesh {
	return &RemoteMesh{cluster: runtime.NewCluster(actors)}
}

// NewRemoteMeshWithTransport provisions actors over a custom transport
// (e.g. a dist Unix-domain socket endpoint or LocalMesh for wire-protocol
// runs).
func NewRemoteMeshWithTransport(actors int, tr transport.Transport) *RemoteMesh {
	return &RemoteMesh{cluster: runtime.NewClusterWithTransport(actors, tr)}
}

// TrainStep is a compiled distributed training step (the step_fn returned by
// mesh.distributed in the paper).
type TrainStep struct {
	exe  *runtime.Executable
	prog *taskgraph.Program
	spec CompileSpec

	// dpSyncNanos[actor] is the wall time the actor's last DP gradient
	// all-reduce took (0 for actors without gradients or when DP is off).
	// Written by each actor's own goroutine during Step, read afterwards.
	dpSyncNanos []int64

	// inBuf is the reusable batch+params staging slice StepInto assembles
	// runtime inputs into. TrainStep drivers are single-threaded (one
	// controller), so one buffer serves every step.
	inBuf []*Tensor
}

// Compile traces, differentiates, stage-splits, schedules, and loads the
// training step onto the mesh.
func (m *RemoteMesh) Compile(spec CompileSpec) (*TrainStep, error) {
	if spec.Loss == nil || spec.Schedule == nil {
		return nil, fmt.Errorf("jaxpp: CompileSpec needs Loss and Schedule")
	}
	var params, batch []*ir.Value
	g, err := trace.Trace("train_step", func(b *Builder) []*ir.Value {
		params = params[:0]
		batch = batch[:0]
		for i, s := range spec.BatchShapes {
			batch = append(batch, b.Input(fmt.Sprintf("batch%d", i), s...))
		}
		for i, s := range spec.ParamShapes {
			params = append(params, b.Input(fmt.Sprintf("param%d", i), s...))
		}
		loss := spec.Loss(b, params, batch)
		return []*ir.Value{loss}
	})
	if err != nil {
		return nil, err
	}
	gg, err := autodiff.ValueAndGrad(g, params)
	if err != nil {
		return nil, err
	}
	split, err := stage.SplitGraph(gg, stage.Options{
		CommuteGradAccumulation: spec.CommuteGradAccumulation,
	})
	if err != nil {
		return nil, err
	}
	batchIdx := make([]int, len(spec.BatchShapes))
	for i := range batchIdx {
		batchIdx[i] = i
	}
	prog, err := taskgraph.Compile(split, spec.Schedule, taskgraph.Options{
		BatchInputs:     batchIdx,
		DisableDeletion: spec.DisableBufferDeletion,
	})
	if err != nil {
		return nil, err
	}
	exe, err := m.cluster.Load(prog, runtime.LoadOptions{
		DataParallel: spec.DataParallel,
		HostActors:   spec.HostActors,
	})
	if err != nil {
		return nil, err
	}
	t := &TrainStep{exe: exe, prog: prog, spec: spec}
	if err := t.installDPSync(m.cluster.Transport); err != nil {
		return nil, err
	}
	return t, nil
}

// scDPSync times each actor's data-parallel gradient all-reduce epilogue,
// attributed to the actor's global ID as the trace lane. A GradSync epilogue
// is its owner's to time.
var scDPSync = obs.Scope("step/dp_sync")

// installDPSync attaches the end-of-step gradient epilogue: for every
// pipeline actor that owns gradient accumulators, a bucketed ring AllReduce
// across its replica peers — or, in its place, the spec's GradSync. Each
// actor starts its epilogue as soon as its own program finishes, overlapping
// it with pipeline cooldown on later stages.
func (t *TrainStep) installDPSync(tr transport.Transport) error {
	replicas := t.exe.Replicas()
	pp := t.exe.ActorsPerReplica()
	t.dpSyncNanos = make([]int64, replicas*pp)
	var groups []*collective.Group
	if t.spec.GradSync == nil {
		if replicas <= 1 {
			return nil
		}
		// Global actor r·pp + a is replica r's pipeline position a, so the
		// replica peers of position a form group a.
		for a := 0; a < pp; a++ {
			peers := make([]int, replicas)
			for r := range peers {
				peers[r] = r*pp + a
			}
			g, err := collective.NewGroup(tr, peers, a)
			if err != nil {
				return err
			}
			groups = append(groups, g)
		}
	}
	for a := 0; a < pp; a++ {
		var bufs []taskgraph.BufID
		for _, g := range t.prog.Grads {
			if g.Actor == a {
				bufs = append(bufs, g.Buf)
			}
		}
		if len(bufs) == 0 {
			continue
		}
		for r := 0; r < replicas; r++ {
			global := r*pp + a
			if !t.exe.Hosts(global) {
				// A hosted-actor-filtered rank never runs this actor's
				// epilogue; skip its communicator so the filter's memory
				// promise (no per-peer state for unhosted actors) holds.
				continue
			}
			epilogue := func(ts []*tensor.Tensor) error { return t.spec.GradSync(global, ts) }
			if groups != nil {
				comm, err := groups[a].Comm(r)
				if err != nil {
					return err
				}
				// Gradient accumulators are store-private (the first
				// accumulation takes over or copies a segment's own output),
				// so the bucketed all-reduce runs in place through the
				// communicator's persistent scratch: no per-step result
				// tensors, no store churn.
				epilogue = func(ts []*tensor.Tensor) error {
					start := time.Now()
					h := obs.TrackTid(scDPSync, global)
					if err := comm.AllReduceBucketsInPlace(ts, collective.OpSum, t.spec.DPBucketBytes); err != nil {
						return fmt.Errorf("jaxpp: dp sync: %w", err)
					}
					h.Stop()
					t.dpSyncNanos[global] = time.Since(start).Nanoseconds()
					return nil
				}
			}
			ts := make([]*tensor.Tensor, len(bufs))
			err := t.exe.SetStepEpilogue(global, func(store *runtime.Store) error {
				for i, b := range bufs {
					g, err := store.Get(b)
					if err != nil {
						return fmt.Errorf("jaxpp: step epilogue: %w", err)
					}
					ts[i] = g
				}
				return epilogue(ts)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Step runs one training step. batch tensors carry the full global batch
// (per-microbatch leading dim × number of microbatches × data-parallel
// replicas, replica-major); params are the current weights. It returns the
// per-microbatch losses (NumReplicas × NumMicrobatches entries,
// replica-major) and the accumulated gradients (one per parameter, summed
// over every replica's microbatches when DataParallel is on).
func (t *TrainStep) Step(params, batch []*Tensor) (losses, grads []*Tensor, err error) {
	losses = make([]*Tensor, t.exe.Replicas()*t.prog.Schedule.NumMB)
	grads = make([]*Tensor, len(t.prog.Grads))
	if err := t.StepInto(params, batch, losses, grads); err != nil {
		return nil, nil, err
	}
	return losses, grads, nil
}

// StepInto is Step writing results into caller-provided slices (losses of
// len NumReplicas×NumMicrobatches, grads of len NumParams), mirroring
// interp.Program.RunInto: a driver that reuses its result buffers runs the
// whole dispatch path without per-step slice allocations. Not safe for
// concurrent use (a TrainStep is a single-controller object).
func (t *TrainStep) StepInto(params, batch, losses, grads []*Tensor) error {
	inputs, err := t.stageInputs(params, batch)
	if err != nil {
		return err
	}
	return t.exe.StepInto(inputs, losses, grads)
}

// stageInputs validates arity and assembles batch+params into the runtime's
// positional input order using the reusable staging buffer.
func (t *TrainStep) stageInputs(params, batch []*Tensor) ([]*Tensor, error) {
	if len(params) != len(t.spec.ParamShapes) {
		return nil, fmt.Errorf("jaxpp: %d params, compiled with %d", len(params), len(t.spec.ParamShapes))
	}
	if len(batch) != len(t.spec.BatchShapes) {
		return nil, fmt.Errorf("jaxpp: %d batch inputs, compiled with %d", len(batch), len(t.spec.BatchShapes))
	}
	t.inBuf = append(append(t.inBuf[:0], batch...), params...)
	return t.inBuf, nil
}

// NumActors returns the cluster's global actor count
// (NumReplicas × pipeline stages' actors) — the world size of a
// multi-process run.
func (t *TrainStep) NumActors() int { return t.exe.Replicas() * t.exe.ActorsPerReplica() }

// StepActor runs one global actor's share of a step — the per-process entry
// point for multi-process training, where each OS process hosts one actor
// and every process passes identical params and the identical full global
// batch (deterministic replication). Peers must run their shares
// concurrently; collect this rank's outputs with TakeActorResultsInto.
func (t *TrainStep) StepActor(actor int, params, batch []*Tensor) error {
	inputs, err := t.stageInputs(params, batch)
	if err != nil {
		return err
	}
	return t.exe.StepActor(actor, inputs)
}

// ActorResults are one actor's step outputs (see runtime.ActorResults).
type ActorResults = runtime.ActorResults

// TakeActorResultsInto fetches the losses and gradients the given global
// actor produced this step, with ownership transfer, into the caller's
// ActorResults, whose slices it reuses so a steady-state distributed driver
// fetches results without per-step slice allocation.
func (t *TrainStep) TakeActorResultsInto(actor int, res *ActorResults) error {
	return t.exe.TakeActorResultsInto(actor, res)
}

// Close does nothing: a TrainStep owns no goroutine between steps. It is kept
// only because bench/probes.go calls it; ROADMAP direction 8(a) removes that
// call, and then this method.
func (t *TrainStep) Close() {}

// NumMicrobatches returns the gradient accumulation count per replica.
func (t *TrainStep) NumMicrobatches() int { return t.prog.Schedule.NumMB }

// NumReplicas returns the data-parallel replica count (1 when DP is off).
func (t *TrainStep) NumReplicas() int { return t.exe.Replicas() }

// DPSyncTime returns the slowest actor's data-parallel gradient all-reduce
// wall time during the last Step (zero when DataParallel is off) — the
// executed counterpart of the simulator's analytic dpSync term.
func (t *TrainStep) DPSyncTime() time.Duration {
	var max int64
	for _, n := range t.dpSyncNanos {
		if n > max {
			max = n
		}
	}
	return time.Duration(max)
}

// NumStages returns the pipeline stage count.
func (t *TrainStep) NumStages() int { return t.prog.Schedule.NumStages }

// MemoryStats returns per-actor object-store statistics after a step.
func (t *TrainStep) MemoryStats() []runtime.StoreStats { return t.exe.StoreStatsAll() }

// Program exposes the compiled MPMD program (for inspection and tests).
func (t *TrainStep) Program() *taskgraph.Program { return t.prog }

// GradOwners returns the producing actor of each gradient output in program
// order — the owner table distrun's step epilogue and checkpoint layout are
// derived from. Available on every rank under the hosted-actor filter (it
// reads shared program metadata, not peer state).
func (t *TrainStep) GradOwners() []int { return t.exe.GradOwners() }
