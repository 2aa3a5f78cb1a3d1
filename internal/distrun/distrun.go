// Package distrun executes a training job across OS processes on the dist
// runtime: every rank compiles the identical program from a shared JobSpec
// (deterministic replication — same seeds, same schedule), runs its own
// actor's share of each step over the wire transport, and keeps the
// parameters of the stage it hosts — reducing their gradients, updating and
// re-gathering them inside the stage's replica group on the collective
// engine — bit-identical to the in-process reference. It is the glue between
// the jaxpp compiler/runtime and the dist coordinator/worker topology that
// cmd/jaxpp-train -distributed and cmd/jaxpp-worker share.
package distrun

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	jaxpp "repro"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Step profiling scopes: the actor's share of the step and the optimizer
// update (the epilogue's two collective scopes live with it in shard.go).
// These are envelope scopes (they contain the collective and wire leaf
// spans), so the breakdown classifier excludes them.
var (
	scStepActor    = obs.Scope("step/actor")
	scSGD          = obs.Scope("step/sgd")
	cStepsProfiled = obs.Counter("step/count")
	// scQuantEF times the error-feedback fold + local quantization;
	// scQuantResidual observes the per-step residual L2 norm in nano-units
	// (norm × 1e9 as an integer), so profiles show whether the carried
	// quantization error stays bounded or drifts.
	scQuantEF       = obs.Scope("step/quant_ef")
	scQuantResidual = obs.Scope("wire/quant_residual_norm")
)

// JobSpec is the coordinator-distributed description of one training job.
// Workers receive it as the rendezvous job payload and reconstruct the
// identical compiled program from it.
type JobSpec struct {
	// Kind names the payload's job kind: "" or "train", the only kind there
	// is. UnmarshalJobSpec refuses any other by name, so a payload from a
	// build that knew another kind fails at rendezvous.
	Kind   string  `json:"kind,omitempty"`
	Stages int     `json:"stages"`
	NumMB  int     `json:"num_mb"`
	MBRows int     `json:"mb_rows"`
	Width  int     `json:"width"`
	Steps  int     `json:"steps"`
	LR     float64 `json:"lr"`
	// Momentum enables heavy-ball SGD (v ← μ·v + g; p ← p − lr·v) when
	// nonzero — real optimizer state for checkpoints to carry alongside the
	// parameters. Zero keeps plain SGD.
	Momentum float64 `json:"momentum,omitempty"`
	// Sharded is accepted and has no effect: optimizer state is always sharded,
	// by the one distributed step epilogue there is (see stageEpilogue). The
	// field stays declared only because the benchmark harness still sets it.
	Sharded      bool   `json:"sharded,omitempty"`
	Schedule     string `json:"schedule"`      // "gpipe" or "1f1b"
	DataParallel int    `json:"data_parallel"` // replicas; 0 or 1 disables
	SPMD         int    `json:"spmd"`          // virtual SPMD devices per actor; 0/1 disables
	Seed         uint64 `json:"seed"`
	// CkptDir enables rank-sharded checkpointing when nonempty: every
	// CkptEvery completed steps each rank writes its share of the training
	// state (its stage's parameters if it is the stage's first replica, plus
	// the velocity ranges only it holds) as wire-codec frames, a barrier
	// fences durability, and rank 0 commits the step with a manifest (see
	// package ckpt). On start, every rank independently restores the newest
	// consistent checkpoint and the job resumes at its step. The directory
	// must be reachable by every rank (one host, or a shared filesystem).
	CkptDir string `json:"ckpt_dir,omitempty"`
	// CkptEvery is the checkpoint period in steps (default 0 = only if
	// CkptDir is set, every 10 steps).
	CkptEvery int `json:"ckpt_every,omitempty"`
	// StepSleepMs inserts an artificial pause after every step on every
	// rank — test instrumentation that stretches a job out so failure
	// injection (worker kill) has a stable window to land in.
	StepSleepMs int `json:"step_sleep_ms,omitempty"`
	// Profile enables the obs registry on every rank for the job's duration:
	// per-step one-line summaries, and an end-of-job profile snapshot per rank
	// shipped to the coordinator (Report.Profiles on rank 0). Travels in the
	// rendezvous payload so one flag on the coordinator profiles the world.
	Profile bool `json:"profile,omitempty"`
	// ProfileLocal arms the registry and per-step summaries on this rank only
	// (jaxpp-worker -profile). Deliberately unmarshaled: the end-of-job
	// snapshot exchange must stay symmetric across ranks, so shipping follows
	// Profile (the payload) alone.
	ProfileLocal bool `json:"-"`
	// Telemetry arms the live telemetry plane on every rank: one
	// obs.StepSample per step into the process-local ring, streamed to the
	// coordinator piggybacked on control-plane heartbeats. Travels in the
	// rendezvous payload so the coordinator's -metrics-addr flag lights up
	// the whole world without per-worker flags.
	Telemetry bool `json:"telemetry,omitempty"`
	// WireDType selects the wire encoding of gradient collective traffic:
	// "" or "f64" (lossless, the default), "f32" (halves gradient wire
	// bytes), or "int8q" (~8× smaller, with rank-local error-feedback
	// residuals carrying the quantization error into the next step). Only
	// the gradient communicator's tag window compresses — losses, pipeline
	// activations, control frames, and checkpoints always ship f64. Travels
	// in the rendezvous payload so one coordinator flag arms the world.
	WireDType string `json:"wire_dtype,omitempty"`
	// Shape, when set, shapes every link of every rank's data plane
	// (dist.Transport.SetShape) into a degraded network (latency/jitter/
	// bandwidth/loss) — the CI tier that validates multi-host behavior
	// without netem. Travels in the payload so all ranks shape identically.
	Shape *ShapeSpec `json:"shape,omitempty"`
}

// ShapeSpec is the JSON-friendly form of dist.ShapeOpts carried in the
// rendezvous payload.
type ShapeSpec struct {
	LatencyUs    int64   `json:"latency_us,omitempty"`
	JitterUs     int64   `json:"jitter_us,omitempty"`
	BandwidthGBs float64 `json:"bandwidth_gbs,omitempty"`
	LossProb     float64 `json:"loss_prob,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
}

// Opts converts the payload form into the link shaping options.
func (s *ShapeSpec) Opts() dist.ShapeOpts {
	return dist.ShapeOpts{
		Latency:      time.Duration(s.LatencyUs) * time.Microsecond,
		Jitter:       time.Duration(s.JitterUs) * time.Microsecond,
		BandwidthGBs: s.BandwidthGBs,
		LossProb:     s.LossProb,
		Seed:         s.Seed,
	}
}

// KindTrain is the JobSpec payload kind (the empty string means the same).
const KindTrain = "train"

// World returns the process count the job needs: one per global actor.
func (s JobSpec) World() int {
	return max(s.DataParallel, 1) * s.Stages
}

// Replicas returns the data-parallel replica count (>= 1).
func (s JobSpec) Replicas() int { return max(s.DataParallel, 1) }

// Marshal encodes the spec for the rendezvous job payload.
func (s JobSpec) Marshal() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain struct of scalars; cannot fail
	}
	return data
}

// UnmarshalJobSpec decodes a rendezvous job payload.
func UnmarshalJobSpec(data []byte) (JobSpec, error) {
	var s JobSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("distrun: bad job payload: %w", err)
	}
	if s.Kind != "" && s.Kind != KindTrain {
		return s, fmt.Errorf("distrun: payload kind %q is not a training job", s.Kind)
	}
	return s, s.validate()
}

// validate rejects a spec no rank can run, naming the field (as the payload
// spells it) and its value. A spec enters the program from outside — the
// rendezvous payload and the -resume state file through UnmarshalJobSpec,
// jaxpp-train's flags and RunLocal's callers through CompileHosted — and both
// call this first, so a bad value fails the job with an error instead of
// dividing by zero in InitModel, training to NaN, or running silently as a
// different job. Steps 0 is legal: the benchmark times set-up (join, mesh
// connect, compile) with such jobs.
func (s JobSpec) validate() error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("distrun: invalid job spec: %s = %v, want %s", field, v, want)
	}
	for _, f := range []struct {
		field  string
		v, min int
	}{
		{"stages", s.Stages, 1}, {"num_mb", s.NumMB, 1}, {"mb_rows", s.MBRows, 1}, {"width", s.Width, 1},
		{"steps", s.Steps, 0}, {"data_parallel", s.DataParallel, 0}, {"spmd", s.SPMD, 0},
		{"ckpt_every", s.CkptEvery, 0}, {"step_sleep_ms", s.StepSleepMs, 0},
	} {
		if f.v < f.min {
			return bad(f.field, f.v, fmt.Sprintf(">= %d", f.min))
		}
	}
	if s.World()/s.Stages != s.Replicas() {
		return bad("data_parallel", s.DataParallel, fmt.Sprintf("a world of that many replicas x %d stages to fit an int", s.Stages))
	}
	for _, f := range []struct {
		field string
		v     float64
	}{{"lr", s.LR}, {"momentum", s.Momentum}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad(f.field, f.v, "a finite number")
		}
	}
	switch s.Schedule {
	case "", "1f1b", "gpipe":
	default:
		return bad("schedule", fmt.Sprintf("%q", s.Schedule), `"1f1b" or "gpipe"`)
	}
	if _, err := dist.ParseDType(s.WireDType); err != nil {
		return err
	}
	if sh := s.Shape; sh != nil {
		switch {
		case sh.LatencyUs < 0:
			return bad("shape.latency_us", sh.LatencyUs, ">= 0")
		case sh.JitterUs < 0:
			return bad("shape.jitter_us", sh.JitterUs, ">= 0")
		case !(sh.BandwidthGBs >= 0): // NaN fails too
			return bad("shape.bandwidth_gbs", sh.BandwidthGBs, ">= 0")
		case !(sh.LossProb >= 0 && sh.LossProb <= 1):
			return bad("shape.loss_prob", sh.LossProb, "within [0, 1]")
		}
	}
	return nil
}

// worldGroupID selects the tag window of the all-ranks process group, on which
// only the once-per-job start-step agreement of a resumed job runs: no step
// sends on it. DP-sync groups derived from the actor mesh use IDs 0..pp-1
// (data axis) and pp..pp+replicas-1 (pipe axis, if anyone builds them), so a
// constant far above any realistic stage or replica count keeps the windows
// disjoint; the step epilogue's replica groups (gradGroupID, paramGroupID)
// and the end-of-job collection of parameters and losses (finalGroupID) sit
// right above it. The calibration window (TagSpaceBase/2)
// and pipeline P2P tags (small sequential ints) are below every group window
// by construction.
const worldGroupID = 1 << 10

// commOn returns the communicator of the transport actor `rank` on a process
// group over the given actors.
func commOn(tr transport.Transport, actors []int, groupID, rank int) (*collective.Communicator, error) {
	group, err := collective.NewGroup(tr, actors, groupID)
	if err != nil {
		return nil, err
	}
	return group.CommForActor(rank)
}

// worldComm returns this rank's communicator on the all-ranks process group
// (ranks 0..world-1 under worldGroupID).
func worldComm(tr transport.Transport, world, rank int) (*collective.Communicator, error) {
	ranks := make([]int, world)
	for i := range ranks {
		ranks[i] = i
	}
	return commOn(tr, ranks, worldGroupID, rank)
}

// RunJob decodes the rendezvous job payload and runs this rank's share of the
// training job it describes. It is the single entry point a jaxpp-worker
// needs: the payload, not a CLI flag, is the job.
func RunJob(sess *dist.Session) error { return RunJobWith(sess, JobOptions{}) }

// JobOptions are rank-local settings a worker applies on top of the
// coordinator's payload.
type JobOptions struct {
	// Profile logs per-step summaries on this rank even if the coordinator's
	// payload did not request profiling. The end-of-job snapshot exchange
	// still follows the payload alone.
	Profile bool
}

// RunJobWith is RunJob with rank-local JobOptions applied.
func RunJobWith(sess *dist.Session, opt JobOptions) error {
	spec, err := UnmarshalJobSpec(sess.Job)
	if err != nil {
		return err
	}
	spec.ProfileLocal = opt.Profile
	_, err = Run(sess, spec)
	return err
}

// ckptEvery resolves the checkpoint period: explicit when set, a default of
// 10 steps when checkpointing is enabled without one, 0 when disabled.
func (s JobSpec) ckptEvery() int {
	if s.CkptDir == "" {
		return 0
	}
	if s.CkptEvery > 0 {
		return s.CkptEvery
	}
	return 10
}

// Report is a job's outcome on one rank.
type Report struct {
	Rank  int
	World int
	// StartStep is the optimizer step the job resumed from (0 for a fresh
	// start): the loss/param histories below cover steps StartStep..Steps-1.
	StartStep int
	// MBLosses[step] holds the per-microbatch losses of that step in global
	// (replica-major) microbatch order. Populated on rank 0 only — workers
	// hand their losses to the coordinator when the job ends.
	MBLosses [][]float64
	// StepLosses[step] is the mean microbatch loss (rank 0 only).
	StepLosses []float64
	// FinalParams are the post-training parameters (rank 0 only: a worker's
	// parameter list is current for the stage it hosts alone).
	FinalParams []*jaxpp.Tensor
	// Profiles holds every rank's end-of-job obs snapshot in rank order when
	// the spec requested profiling. Populated on rank 0 (workers ship theirs
	// over the control plane) and on the local runner (one snapshot).
	Profiles []*obs.Snapshot
}

// beginProfiling arms the obs registry for a profiled job and returns the
// teardown that restores the prior gate state. The reset discards any stale
// aggregates a previous job (or an unprofiled warmup) left behind.
func beginProfiling() (restore func()) {
	was := obs.Enabled()
	obs.SnapshotAndReset()
	obs.Enable()
	return func() {
		if !was {
			obs.Disable()
		}
	}
}

// logStepSummary emits the one-line per-step profile: wall time plus the
// compute/wire/idle delta since the previous step, read via BreakdownNow (no
// reset, no allocation — the end-of-job snapshot keeps the full job's spans).
func logStepSummary(rank, step int, wall time.Duration, prev *[3]int64) {
	c, w, i := obs.BreakdownNow()
	log.Printf("profile rank %d step %d: wall %.3fms compute %.3fms wire %.3fms idle %.3fms",
		rank, step, wall.Seconds()*1e3,
		float64(c-prev[0])/1e6, float64(w-prev[1])/1e6, float64(i-prev[2])/1e6)
	*prev = [3]int64{c, w, i}
}

// InitModel builds the deterministic initial parameters and global batch
// every rank derives from the spec's seed — byte-identical across
// processes, which is what lets ranks replicate driver state instead of
// shipping it.
func InitModel(spec JobSpec) (params, batch []*jaxpp.Tensor) { return initModel(spec, -1) }

// initModel is InitModel for the actor at pipeline position stage, or for
// every actor when stage is negative. It draws only what that actor reads —
// the stage's weight, the inputs x if it is the first stage, the targets y if
// it is the last — bit-identical to InitModel's, and skips every other draw
// without computing it. The tensors it does not draw are zero, at their
// shapes, which is all a step checks of them.
func initModel(spec JobSpec, stage int) (params, batch []*jaxpp.Tensor) {
	reads := func(s int) bool { return stage < 0 || stage == s }
	rng := jaxpp.NewRNG(spec.Seed)
	params = make([]*jaxpp.Tensor, spec.Stages)
	for i := range params {
		if reads(i) {
			params[i] = rng.Xavier(spec.Width, spec.Width)
		} else {
			params[i] = jaxpp.NewTensor(spec.Width, spec.Width)
			rng.Skip(spec.Width * spec.Width)
		}
	}
	rows := spec.Replicas() * spec.NumMB * spec.MBRows
	last := spec.Stages - 1
	var x, y *jaxpp.Tensor
	if reads(0) {
		x = rng.Normal(1, rows, spec.Width)
	} else {
		x = jaxpp.NewTensor(rows, spec.Width)
		if reads(last) {
			rng.SkipNorm(rows * spec.Width)
		}
	}
	if reads(last) {
		y = rng.OneHotBatch(rows, spec.Width)
	} else {
		y = jaxpp.NewTensor(rows, spec.Width)
	}
	return params, []*jaxpp.Tensor{x, y}
}

// Compile builds the training step for a spec over the given transport
// (nil compiles onto a fresh in-process cluster), materializing every actor.
func Compile(spec JobSpec, tr transport.Transport) (*jaxpp.TrainStep, error) {
	return CompileHosted(spec, tr, nil)
}

// CompileHosted is Compile with a hosted-actor filter: a distributed rank
// passes its own actor ID so the process materializes one actor's store and
// compiled programs instead of all World()'s — actor and loss/gradient owners
// are derived from the shared program metadata, which every rank compiles
// identically, so nothing about peers needs to exist locally. nil hosts every
// actor.
func CompileHosted(spec JobSpec, tr transport.Transport, hostActors []int) (*jaxpp.TrainStep, error) {
	return compile(spec, tr, hostActors, nil)
}

// compile is CompileHosted with the gradient epilogue Run puts in the DP
// all-reduce's place (jaxpp.CompileSpec.GradSync; nil keeps the all-reduce).
func compile(spec JobSpec, tr transport.Transport, hostActors []int, gradSync func(actor int, grads []*jaxpp.Tensor) error) (*jaxpp.TrainStep, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	sched := jaxpp.OneFOneB(spec.Stages, spec.NumMB)
	if spec.Schedule == "gpipe" {
		sched = jaxpp.GPipe(spec.Stages, spec.NumMB)
	}
	paramShapes := make([][]int, spec.Stages)
	for i := range paramShapes {
		paramShapes[i] = []int{spec.Width, spec.Width}
	}
	var mesh *jaxpp.RemoteMesh
	if tr == nil {
		mesh = jaxpp.NewRemoteMesh(spec.World())
	} else {
		mesh = jaxpp.NewRemoteMeshWithTransport(spec.World(), tr)
	}
	return mesh.Compile(jaxpp.CompileSpec{
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			h := mb[0]
			for i, w := range params {
				h = b.ReLU(b.MatMul(h, w))
				if i+1 < len(params) {
					h = b.PipelineYield(h)
				}
			}
			return b.CrossEntropy(h, mb[1])
		},
		ParamShapes:         paramShapes,
		BatchShapes:         [][]int{{spec.MBRows, spec.Width}, {spec.MBRows, spec.Width}},
		Schedule:            sched,
		DataParallel:        spec.DataParallel,
		DPBucketBytes:       dpBucketBytes,
		GradSync:            gradSync,
		SPMDDevicesPerActor: spec.SPMD,
		HostActors:          hostActors,
	})
}

// applyUpdate runs the optimizer step the spec selects over whole tensors:
// dst receives the updated parameters and, under momentum, vel updates in
// place (v ← μ·v + g; p ← p − lr·v). It is the in-process reference's update;
// distributed ranks run the same model range kernels over the ranges they
// hold (stageEpilogue.finish), and because the kernels are elementwise the
// two agree bit for bit. RunLocal double-buffers dst and params and swaps
// after each step, so steady-state training allocates no parameter tensors.
func applyUpdate(spec JobSpec, dst, params, grads, vel []*jaxpp.Tensor) error {
	if len(dst) != len(params) || len(grads) != len(params) || (spec.Momentum != 0 && len(vel) != len(params)) {
		return fmt.Errorf("distrun: update arity mismatch: %d dst, %d params, %d grads, %d vel", len(dst), len(params), len(grads), len(vel))
	}
	for i := range params {
		pd, gd, dd := params[i].Data(), grads[i].Data(), dst[i].Data()
		if len(pd) != len(gd) || len(pd) != len(dd) {
			return fmt.Errorf("distrun: update size mismatch at %d: %d params, %d grads, %d dst", i, len(pd), len(gd), len(dd))
		}
		if spec.Momentum != 0 {
			model.MomentumRange(dd, pd, gd, vel[i].Data(), spec.LR, spec.Momentum)
		} else {
			model.SGDRange(dd, pd, gd, spec.LR)
		}
	}
	return nil
}

// newVelocity allocates zeroed momentum buffers (nil when momentum is off —
// plain SGD carries no optimizer state).
func newVelocity(spec JobSpec, params []*jaxpp.Tensor) []*jaxpp.Tensor {
	if spec.Momentum == 0 {
		return nil
	}
	vel := make([]*jaxpp.Tensor, len(params))
	for i, p := range params {
		vel[i] = jaxpp.NewTensor(p.Shape()...)
	}
	return vel
}

// velFlat reassembles a checkpoint's optimizer velocity state into the
// owner-major flat vector, whichever on-disk layout the manifest uses: a
// sharded manifest's pieces concatenate in entry order (however the writing
// world cut the vector, recorded in OptShardCounts), a dense manifest's
// per-tensor velocities pack through the plan's order. Because the flat
// layout is a function of the compiled program only, this is the pivot that
// lets any (layout, world) checkpoint restore into any job: distributed runs
// write the sharded layout, RunLocal (and builds that predate the single
// sharded epilogue) the dense one.
func velFlat(m *ckpt.Manifest, entries []*tensor.Tensor, nparams int, plan *shardPlan, flat []float64) error {
	if m.Sharded() {
		off := 0
		for k, cnt := range m.OptShardCounts {
			t := entries[nparams+k]
			if t.Size() != cnt || off+cnt > plan.total {
				return fmt.Errorf("distrun: checkpoint velocity piece %d has %d elements at offset %d, manifest promises %d of a %d-element vector", k, t.Size(), off, cnt, plan.total)
			}
			copy(flat[off:off+cnt], t.Data())
			off += cnt
		}
		if off != plan.total {
			return fmt.Errorf("distrun: checkpoint velocity vector has %d elements, program wants %d", off, plan.total)
		}
		return nil
	}
	for k, gi := range plan.order {
		t := entries[nparams+gi]
		if t.Size() != plan.off[k+1]-plan.off[k] {
			return fmt.Errorf("distrun: checkpoint velocity %d has %d elements, parameter wants %d", gi, t.Size(), plan.off[k+1]-plan.off[k])
		}
		copy(flat[plan.off[k]:plan.off[k+1]], t.Data())
	}
	return nil
}

// restoreState loads the newest consistent checkpoint under spec.CkptDir into
// the already-allocated training state and returns the step to resume at (0
// when no usable checkpoint exists — fresh start). Every parameter restores
// directly on every rank (a checkpoint holds them all, whoever wrote which);
// momentum state pivots through the plan's owner-major flat vector, which
// setVel takes what it keeps from — so dense and sharded checkpoints restore
// into the in-process runner (per-tensor velocities) and into distributed
// ranks (the ranges the rank holds in the current world) in any combination
// and across world-size changes. Every rank calls this independently; the
// caller is responsible for cross-rank agreement on the returned step.
func restoreState(spec JobSpec, rank int, params []*jaxpp.Tensor, plan *shardPlan, setVel func(flat []float64)) (int, error) {
	m, entries, skipped, err := ckpt.Restore(spec.CkptDir)
	if err != nil {
		return 0, fmt.Errorf("distrun: rank %d restore: %w", rank, err)
	}
	for _, s := range skipped {
		log.Printf("distrun: rank %d skipped unusable checkpoint step %d under %s", rank, s, spec.CkptDir)
	}
	if m == nil {
		return 0, nil
	}
	defer func() {
		for _, t := range entries {
			tensor.Recycle(t)
		}
	}()
	if err := m.Compatible(spec.Stages, spec.Width, len(params), spec.Momentum); err != nil {
		return 0, fmt.Errorf("distrun: rank %d: %w", rank, err)
	}
	for i, p := range params {
		p.CopyFrom(entries[i].Data())
	}
	if spec.Momentum != 0 {
		flat := tensor.GetScratch(plan.total)
		defer tensor.Recycle(flat)
		if err := velFlat(m, entries, len(params), plan, flat.Data()); err != nil {
			return 0, fmt.Errorf("distrun: rank %d: %w", rank, err)
		}
		setVel(flat.Data())
	}
	log.Printf("distrun: rank %d restored checkpoint step %d (world %d wrote it, sharded=%v)", rank, m.Step, m.World, m.Sharded())
	return m.Step, nil
}

// saveCheckpointSharded is the distributed checkpoint writer. A rank writes
// what it alone is sure to hold current: the replica-0 rank of a stage that
// stage's parameters, every rank the velocity of the ranges it updates — one
// entry per range, in flat-vector order, so the entries concatenate to the
// owner-major vector any future world re-slices on restore. Rank 0 commits
// with a manifest recording that ownership. Plain SGD has no optimizer state,
// so its manifest is params-only. A checkpoint failure is a job failure:
// half-checkpointing silently would turn the next recovery into a rollback
// surprise.
func saveCheckpointSharded(sess *dist.Session, spec JobSpec, step int, params []*jaxpp.Tensor, ep *stageEpilogue) error {
	entries := make([]*tensor.Tensor, len(params), len(params)+len(ep.all))
	owners := append(make([]int, 0, cap(entries)), ep.plan.owners...)
	var optCounts []int
	for gi, owner := range owners {
		if owner == sess.Rank {
			entries[gi] = params[gi]
		}
	}
	if ep.mu != 0 {
		mine := ep.vel
		for _, h := range ep.all {
			var v *tensor.Tensor
			if h.rank == sess.Rank {
				v, mine = mine[0], mine[1:]
			}
			entries = append(entries, v)
			owners = append(owners, h.rank)
			optCounts = append(optCounts, h.hi-h.lo)
		}
	}
	var owned []int
	for e, t := range entries {
		if t != nil {
			owned = append(owned, e)
		}
	}
	if err := ckpt.WriteShard(spec.CkptDir, step, sess.Rank, entries, owned); err != nil {
		return fmt.Errorf("distrun: rank %d checkpoint step %d: %w", sess.Rank, step, err)
	}
	return commitCheckpoint(sess, spec.CkptDir,
		ckpt.NewManifestSharded(step, sess.World, spec.Stages, spec.Width, len(params), spec.Momentum, optCounts, owners))
}

// saveCheckpointLocal is the single-process runner's writer: one shard (rank
// 0 owns every entry) in the dense per-tensor layout, immediately committed.
func saveCheckpointLocal(spec JobSpec, step int, params, vel []*jaxpp.Tensor) error {
	// Parameters first, then velocities: the dense layout's entry order.
	entries := append(append([]*tensor.Tensor(nil), params...), vel...)
	if err := ckpt.WriteShard(spec.CkptDir, step, 0, entries, ckpt.Owned(0, 1, len(entries))); err != nil {
		return fmt.Errorf("distrun: local checkpoint step %d: %w", step, err)
	}
	return commitCheckpoint(nil, spec.CkptDir,
		ckpt.NewManifest(step, 1, spec.Stages, spec.Width, len(params), spec.Momentum))
}

// commitCheckpoint is the tail both writers share: a barrier so every rank's
// shard is durable (sess is nil for the single-process runner, which has
// nobody to wait for), then rank 0 commits the step by writing its manifest
// and prunes old checkpoints.
func commitCheckpoint(sess *dist.Session, dir string, m *ckpt.Manifest) error {
	if sess != nil {
		if err := sess.Barrier(); err != nil {
			return fmt.Errorf("distrun: rank %d checkpoint barrier step %d: %w", sess.Rank, m.Step, err)
		}
		if sess.Rank != 0 {
			return nil
		}
	}
	if err := ckpt.WriteManifest(dir, m); err != nil {
		return fmt.Errorf("distrun: commit checkpoint step %d: %w", m.Step, err)
	}
	if err := ckpt.Prune(dir, 0); err != nil {
		return fmt.Errorf("distrun: prune checkpoints: %w", err)
	}
	return nil
}

// Run executes the job on this rank of a bootstrapped session: compile the
// shared program with this rank's actor hosted, restore the newest
// checkpoint if there is one, then every step run the actor — whose step
// epilogue is the reduce half of the gradient all-reduce inside the stage's
// replica group — and finish the stage-local epilogue (stageEpilogue: update
// the ranges this rank reduced, gather the stage's parameters from the
// replica group). A step sends pipeline activations and gradients and the
// hops of the stage's replica-group ring, nothing else: no collective spans
// the world. A rank that owns losses keeps them, and after the last step
// rank 0 collects the other stages' parameters and every other rank's losses
// (collectResults) for a Report whose losses and FinalParams are
// bit-identical to RunLocal's. Between steps a rank's parameter list is
// current for the stage it hosts and stale elsewhere: nothing reads the
// rest. Blocks until the job completes or the transport is poisoned (a dead
// peer surfaces here as an error, not a hang).
func Run(sess *dist.Session, spec JobSpec) (*Report, error) {
	return runOver(sess, sess.Transport, spec, []int{sess.Rank})
}

// runOver is Run with the session's data plane and the hosted actors passed
// in: sess.Transport itself or a test's checking wrapper around it, and this
// rank's actor alone or nil, which materializes every actor (a test's check
// that the hosted filter does not change numerics).
func runOver(sess *dist.Session, tr transport.Transport, spec JobSpec, host []int) (*Report, error) {
	if sess.World != spec.World() {
		return nil, fmt.Errorf("distrun: session world %d, job wants %d (= %d replicas × %d stages)", sess.World, spec.World(), spec.Replicas(), spec.Stages)
	}
	wireDT, err := dist.ParseDType(spec.WireDType)
	if err != nil {
		return nil, err
	}
	if spec.Shape != nil {
		// Degraded-network mode: every link's sender worker delays the frames
		// it has encoded, so the codec and the lossy dtype plane are unchanged
		// — only delivery timing is. Armed before the first send dials a link.
		sess.Transport.SetShape(spec.Shape.Opts())
	}
	rank := sess.Rank
	flight.Log("run_start", rank, -1, fmt.Sprintf("world %d telemetry=%v wire=%s shaped=%v", sess.World, spec.Telemetry, wireDT, spec.Shape != nil))
	// The epilogue is built from the compiled program, which is compiled with
	// the epilogue's reduce half as its gradient hook.
	var ep *stageEpilogue
	ts, err := compile(spec, tr, host, func(actor int, grads []*jaxpp.Tensor) error { return ep.reduce(actor, grads) })
	if err != nil {
		return nil, err
	}
	prog := ts.Program()
	pp := ts.NumActors() / ts.NumReplicas()
	numMB := ts.NumMicrobatches()
	totalMB := ts.NumReplicas() * numMB

	// Loss owners, derived from program metadata identically on every rank
	// (no peer actor exists locally under the hosted filter): loss (r, mb)
	// lives on replica r's instance of its pipeline actor. lossesByRank[r]
	// lists rank r's global microbatch indices in the order its actor returns
	// them, which is the order of each step's run in the rank's history.
	lossesByRank := make([][]int, sess.World)
	for r := 0; r < ts.NumReplicas(); r++ {
		for mb, l := range prog.Losses {
			owner := r*pp + l.Actor
			lossesByRank[owner] = append(lossesByRank[owner], r*numMB+mb)
		}
	}

	// Gradient traffic optionally rides a lossy wire encoding. The transport's
	// lossy plane is armed per collective tag window, so only the reduce
	// half's frames compress — control frames, the end-of-job collection,
	// checkpoint traffic, and the epilogue's parameter gather all stay f64
	// end to end.
	if !wireDT.Lossless() {
		sess.Transport.SetLossyTagWindow(collective.GroupTagRange(gradGroupID))
		sess.Transport.SetWireDType(wireDT)
	}

	// A rank draws only what its actor reads. Rank 0 draws everything: it
	// reports every stage's parameters, and on a job that runs no step those
	// are the initial ones.
	stage := rank % pp
	if rank == 0 {
		stage = -1
	}
	params, batch := initModel(spec, stage)
	if len(prog.Grads) != len(params) {
		return nil, fmt.Errorf("distrun: program has %d gradients for %d parameters", len(prog.Grads), len(params))
	}
	// The owner-major plan is derived from program metadata on every rank
	// identically; the epilogue's steady-state state (communicators, held
	// ranges, their optimizer state) is built once here and reused every step.
	plan, err := planForStep(ts, params)
	if err != nil {
		return nil, err
	}
	if ep, err = newStageEpilogue(spec, tr, plan, params, rank, dpBucketBytes); err != nil {
		return nil, err
	}
	defer ep.release()
	startStep := 0
	if spec.CkptDir != "" {
		if startStep, err = restoreState(spec, rank, params, plan, ep.setVelocity); err != nil {
			return nil, err
		}
		// Start-step agreement: every rank restored independently from disk,
		// and a rank that locally fell back to an older checkpoint (corrupt
		// shard only it can see) must not silently train from different state.
		// One 1-element-per-rank AllGather over the world compares the resume
		// steps — the job's one world-wide collective.
		comm, err := worldComm(tr, sess.World, rank)
		if err != nil {
			return nil, err
		}
		mine := tensor.GetScratch(1)
		all := tensor.GetScratch(sess.World)
		mine.Data()[0] = float64(startStep)
		gerr := comm.AllGatherInto(all, mine)
		if gerr == nil {
			for r, v := range all.Data() {
				if int(v) != startStep {
					gerr = fmt.Errorf("distrun: rank %d resumes at step %d but rank %d at step %d: checkpoint disagreement, refusing to train", rank, startStep, r, int(v))
					break
				}
			}
		}
		tensor.Recycle(mine)
		tensor.Recycle(all)
		if gerr != nil {
			return nil, gerr
		}
		if startStep > 0 {
			flight.Log("restore", rank, startStep, "resumed from checkpoint")
		}
	}
	if wireDT == dist.DTInt8Q {
		ep.armErrorFeedback()
	}
	// The per-step result struct is reused every step too. losses is this
	// rank's history, step-major: each step appends its actor's losses.
	res := &jaxpp.ActorResults{}
	var losses []float64

	profiling := spec.Profile || spec.ProfileLocal
	if profiling {
		defer beginProfiling()()
	}
	// Telemetry arms after profiling: beginProfiling's SnapshotAndReset must
	// run before the sampler primes its baselines, or the first step's deltas
	// go negative.
	if spec.Telemetry {
		defer beginTelemetry()()
	}
	sampler := newStepSampler(rank, sess.Transport.QueueDepth)
	var stepPrev [3]int64
	rep := &Report{Rank: rank, World: sess.World, StartStep: startStep}
	for step := startStep; step < spec.Steps; step++ {
		stepStart := time.Now()
		ha := obs.TrackTid(scStepActor, rank)
		err := ts.StepActor(rank, params, batch)
		ha.Stop()
		if err != nil {
			return nil, fmt.Errorf("distrun: rank %d step %d: %w", rank, step, err)
		}
		if err := ts.TakeActorResultsInto(rank, res); err != nil {
			return nil, fmt.Errorf("distrun: rank %d step %d results: %w", rank, step, err)
		}

		for _, l := range res.Losses {
			losses = append(losses, l.Data()[0])
			tensor.Recycle(l)
		}
		if err := ep.finish(res); err != nil {
			return nil, fmt.Errorf("distrun: rank %d step %d %w", rank, step, err)
		}
		if every := spec.ckptEvery(); every > 0 && (step+1)%every == 0 && step+1 < spec.Steps {
			if err := saveCheckpointSharded(sess, spec, step+1, params, ep); err != nil {
				return nil, err
			}
			flight.Log("ckpt_commit", rank, step+1, "")
		}
		obs.Add(cStepsProfiled, 1)
		sampler.record(step, time.Since(stepStart))
		if profiling {
			logStepSummary(rank, step, time.Since(stepStart), &stepPrev)
		}
		if spec.StepSleepMs > 0 {
			time.Sleep(time.Duration(spec.StepSleepMs) * time.Millisecond)
		}
	}
	// Rank 0 reports the whole model and every step's losses. A job that ran
	// no step (Steps 0, or a resume at the last step) has no loss and the
	// model already: initial or restored parameters are complete on every
	// rank, and nothing is sent.
	if steps := spec.Steps - startStep; steps > 0 {
		histories, err := collectResults(tr, plan, params, lossesByRank, losses, steps, rank)
		if err != nil {
			return nil, err
		}
		for s := 0; rank == 0 && s < steps; s++ {
			mbLosses := make([]float64, totalMB)
			for r, mbs := range lossesByRank {
				for j, mb := range mbs {
					mbLosses[mb] = histories[r][s*len(mbs)+j]
				}
			}
			// Summed in global microbatch order, as RunLocal sums.
			var total float64
			for _, l := range mbLosses {
				total += l
			}
			rep.MBLosses = append(rep.MBLosses, mbLosses)
			rep.StepLosses = append(rep.StepLosses, total/float64(totalMB))
		}
	}
	// End-of-job barrier: no rank tears its session down while a slower peer
	// is still mid-step — without it, a fast rank's graceful shutdown is
	// indistinguishable from a crash to ranks still exchanging tensors.
	if err := sess.Barrier(); err != nil {
		return nil, fmt.Errorf("distrun: rank %d end-of-job barrier: %w", rank, err)
	}
	// Profile exchange, strictly after the barrier: the control plane's reply
	// channel is free of barrier traffic, and every rank's spans are final (all
	// instrumented goroutines are quiescent — the snapshot ownership rule).
	if spec.Profile {
		snap := obs.SnapshotAndReset()
		snap.Rank = rank
		if rank == 0 {
			rep.Profiles = append(rep.Profiles, snap)
			raws, err := sess.GatherProfiles()
			if err != nil {
				return nil, fmt.Errorf("distrun: rank 0 profile gather: %w", err)
			}
			for _, raw := range raws {
				ws := &obs.Snapshot{}
				if err := json.Unmarshal(raw, ws); err != nil {
					return nil, fmt.Errorf("distrun: bad worker profile: %w", err)
				}
				rep.Profiles = append(rep.Profiles, ws)
			}
			sort.Slice(rep.Profiles, func(i, j int) bool { return rep.Profiles[i].Rank < rep.Profiles[j].Rank })
		} else {
			data, err := json.Marshal(snap)
			if err != nil {
				return nil, fmt.Errorf("distrun: rank %d profile marshal: %w", rank, err)
			}
			if err := sess.SendProfile(data); err != nil {
				return nil, fmt.Errorf("distrun: rank %d profile send: %w", rank, err)
			}
		}
	}
	if rank == 0 {
		rep.FinalParams = params
	}
	return rep, nil
}

// RunLocal executes the identical job in one process on the in-process
// runtime — the reference the multi-process path must match bit for bit.
func RunLocal(spec JobSpec) (*Report, error) { return RunLocalOn(spec, nil) }

// RunLocalOn is RunLocal over a caller-provided transport (e.g. a
// dist.LocalMesh, exercising the binary wire path inside one process). The
// driver runs the allocation-lean dispatch path: results land in reused
// StepInto buffers, exchanged tensors are recycled once consumed, and the
// SGD update writes into a double-buffered parameter set.
func RunLocalOn(spec JobSpec, tr transport.Transport) (*Report, error) {
	ts, err := Compile(spec, tr)
	if err != nil {
		return nil, err
	}
	params, batch := InitModel(spec)
	totalMB := ts.NumReplicas() * ts.NumMicrobatches()
	next := make([]*jaxpp.Tensor, len(params))
	for i, p := range params {
		next[i] = jaxpp.NewTensor(p.Shape()...)
	}
	losses := make([]*jaxpp.Tensor, totalMB)
	grads := make([]*jaxpp.Tensor, len(ts.Program().Grads))
	vel := newVelocity(spec, params)
	startStep := 0
	if spec.CkptDir != "" {
		// The owner-major flat order is world-independent, so the
		// single-process runner restores sharded checkpoints too.
		plan, perr := planForStep(ts, params)
		if perr != nil {
			return nil, perr
		}
		setVel := func(flat []float64) { plan.scatter(vel, flat) }
		if startStep, err = restoreState(spec, 0, params, plan, setVel); err != nil {
			return nil, err
		}
	}
	if spec.Profile {
		defer beginProfiling()()
	}
	var stepPrev [3]int64
	rep := &Report{Rank: 0, World: 1, StartStep: startStep}
	for step := startStep; step < spec.Steps; step++ {
		stepStart := time.Now()
		ha := obs.Track(scStepActor)
		err := ts.StepInto(params, batch, losses, grads)
		ha.Stop()
		if err != nil {
			return nil, fmt.Errorf("distrun: local step %d: %w", step, err)
		}
		mbLosses := make([]float64, totalMB)
		var total float64
		for i, l := range losses {
			mbLosses[i] = l.Data()[0]
			total += mbLosses[i]
			tensor.Recycle(l)
		}
		rep.MBLosses = append(rep.MBLosses, mbLosses)
		rep.StepLosses = append(rep.StepLosses, total/float64(totalMB))
		hs := obs.Track(scSGD)
		err = applyUpdate(spec, next, params, grads, vel)
		hs.Stop()
		if err != nil {
			return nil, err
		}
		for i := range grads {
			// Take-transferred accumulators; the update consumed them.
			tensor.Recycle(grads[i])
			grads[i] = nil
		}
		params, next = next, params
		if every := spec.ckptEvery(); every > 0 && (step+1)%every == 0 && step+1 < spec.Steps {
			if err := saveCheckpointLocal(spec, step+1, params, vel); err != nil {
				return nil, err
			}
		}
		obs.Add(cStepsProfiled, 1)
		if spec.Profile {
			logStepSummary(0, step, time.Since(stepStart), &stepPrev)
		}
	}
	if spec.Profile {
		snap := obs.SnapshotAndReset()
		snap.Rank = 0
		rep.Profiles = append(rep.Profiles, snap)
	}
	rep.FinalParams = params
	return rep, nil
}
