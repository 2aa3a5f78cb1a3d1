package distrun

import (
	"fmt"
	"log"
	"math"
	"sort"

	jaxpp "repro"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Gradient-exchange profiling scopes: the two collectives of the step
// epilogue. Envelope scopes (they contain the collective and wire leaf spans),
// so the breakdown classifier excludes them; step/sgd times the shard-local
// update between them.
var (
	scGradRS  = obs.Scope("step/grad_reducescatter")
	scParamAG = obs.Scope("step/param_allgatherv")
)

// shardPlan is the owner-major flat layout of the gradient/parameter vector
// and its balanced partition over the world — the owner tables of the
// ZeRO-1-style epilogue. The layout orders gradient tensors by producing
// actor (the replica-0 stage actors, from program metadata every rank
// compiles identically), then by gradient index, and concatenates them into
// one flat vector. The ordering depends only on the compiled program — not
// on the world size — which is what makes it the canonical representation
// owner-major checkpoints restore through across world-size changes; only
// the counts partition is a function of the world.
type shardPlan struct {
	world int
	total int
	// owners[gi] is the actor that produces gradient gi.
	owners []int
	// order[k] is the gradient index occupying flat range [off[k], off[k+1]).
	order []int
	off   []int
	// gradOff[gi] is the flat offset of gradient gi (inverse of order/off).
	gradOff []int
	// counts/starts is the balanced per-rank partition of [0, total): rank r
	// owns (updates) flat range [starts[r], starts[r]+counts[r]). Shards are
	// uneven whenever world does not divide total, and empty when the world
	// outnumbers the elements.
	counts []int
	starts []int
}

// newShardPlan derives the plan from the gradient owner table and tensor
// sizes (owners[gi] is the producing actor of gradient gi, sizes[gi] its
// element count).
func newShardPlan(owners, sizes []int, world int) (*shardPlan, error) {
	if len(owners) != len(sizes) {
		return nil, fmt.Errorf("distrun: shard plan wants %d owners for %d tensors", len(owners), len(sizes))
	}
	if world < 1 {
		return nil, fmt.Errorf("distrun: shard plan world %d", world)
	}
	p := &shardPlan{
		world:   world,
		owners:  owners,
		order:   make([]int, len(owners)),
		off:     make([]int, len(owners)+1),
		gradOff: make([]int, len(owners)),
	}
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool {
		ga, gb := p.order[a], p.order[b]
		if owners[ga] != owners[gb] {
			return owners[ga] < owners[gb]
		}
		return ga < gb
	})
	for k, gi := range p.order {
		p.off[k+1] = p.off[k] + sizes[gi]
		p.gradOff[gi] = p.off[k]
	}
	p.total = p.off[len(p.order)]
	p.counts = collective.EvenCounts(p.total, world)
	p.starts = make([]int, world)
	for r := 1; r < world; r++ {
		p.starts[r] = p.starts[r-1] + p.counts[r-1]
	}
	return p, nil
}

// planForStep builds the plan for a compiled step over the given world:
// owners come from the shared program metadata (TrainStep.GradOwners), sizes
// from the replicated parameters the gradients mirror.
func planForStep(ts *jaxpp.TrainStep, params []*jaxpp.Tensor, world int) (*shardPlan, error) {
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = p.Size()
	}
	return newShardPlan(ts.GradOwners(), sizes, world)
}

// ownerRange returns the flat range [lo, hi) holding every gradient the
// actor produces — one contiguous range, because the layout sorts by owner —
// or an empty range for an actor that produces none (replicas above 0).
func (p *shardPlan) ownerRange(actor int) (lo, hi int) {
	first := true
	for k, gi := range p.order {
		if p.owners[gi] != actor {
			continue
		}
		if first {
			lo, first = p.off[k], false
		}
		hi = p.off[k+1]
	}
	return lo, hi
}

// scatter unpacks the owner-major flat vector into the tensor list.
func (p *shardPlan) scatter(ts []*jaxpp.Tensor, flat []float64) {
	for k, gi := range p.order {
		ts[gi].CopyFrom(flat[p.off[k]:p.off[k+1]])
	}
}

// shardedState is the steady-state buffer set of the step epilogue, all
// allocated once per job and reused every step (the step-alloc ceiling
// counts on it):
//
//	flatG  — packed per-rank gradient contribution, consumed by the RS-V ring;
//	         only [contribLo, contribHi) is ever written or read here
//	gShard — this rank's fully reduced owned gradient slice
//	uShard — this rank's updated parameter slice
//	flatP  — the full flat parameter vector: the AGV destination the param
//	         tensors are refreshed from
//	vel    — shard-local optimizer state (momentum velocities), ~1/world of
//	         the replicated footprint; nil for plain SGD
type shardedState struct {
	plan   *shardPlan
	rank   int
	flatG  *tensor.Tensor
	gShard *tensor.Tensor
	uShard *tensor.Tensor
	flatP  *tensor.Tensor
	vel    *tensor.Tensor
	// contribLo/contribHi is the flat range of the gradients this rank's
	// actor produces (plan.ownerRange).
	contribLo, contribHi int
	// efRes, when non-nil, arms int8 error-feedback compression of the
	// gradient ReduceScatterV: it carries the rank-local quantization residual
	// over the contributed range (sized to the contribution, not plan.total).
	// It never travels and is not checkpointed: a restore restarts
	// compensation from zero.
	efRes *tensor.Tensor
}

// newShardedState allocates the epilogue buffers for this rank and logs the
// per-rank optimizer-state footprint (the line the CI memory assertion
// greps). Only vel needs zeros: every other buffer is overwritten before it
// is read, so they skip the clear (and, on a cold pool, the page faults that
// come with it).
func newShardedState(spec JobSpec, plan *shardPlan, rank int) *shardedState {
	s := &shardedState{
		plan:   plan,
		rank:   rank,
		flatG:  tensor.GetScratchShaped(plan.total),
		gShard: tensor.GetScratchShaped(plan.counts[rank]),
		uShard: tensor.GetScratchShaped(plan.counts[rank]),
		flatP:  tensor.GetScratchShaped(plan.total),
	}
	s.contribLo, s.contribHi = plan.ownerRange(rank)
	shardBytes, denseBytes := 0, 0
	if spec.Momentum != 0 {
		s.vel = tensor.GetScratchZero(plan.counts[rank])
		shardBytes, denseBytes = 8*plan.counts[rank], 8*plan.total
	}
	pct := 0.0
	if denseBytes > 0 {
		pct = 100 * float64(shardBytes) / float64(denseBytes)
	}
	log.Printf("distrun: rank %d sharded optimizer state %d/%d bytes (%.1f%% of replicated, world %d)",
		rank, shardBytes, denseBytes, pct, plan.world)
	return s
}

// release recycles the buffer set (keeps a job-retrying process's scratch
// pool warm).
func (s *shardedState) release() {
	for _, t := range []*tensor.Tensor{s.flatG, s.gShard, s.uShard, s.flatP, s.vel, s.efRes} {
		if t != nil {
			tensor.Recycle(t)
		}
	}
}

// armErrorFeedback turns the int8 error-feedback transform on for subsequent
// exchanges (a rank that contributes no gradients has nothing to compensate).
func (s *shardedState) armErrorFeedback() {
	if s.contribHi > s.contribLo {
		s.efRes = tensor.GetScratchZero(s.contribHi - s.contribLo)
	}
}

// exchange runs one step epilogue: pack this rank's gradients into its
// contributed range of the flat vector, ReduceScatterV so each rank receives
// only the slice it owns, run the fused optimizer update on that slice
// against shard-local state, AllGatherV the updated slices back into the full
// flat vector, and scatter it into the param tensors. The sparse RS-V ships a
// zero-length identity marker — no −0.0 filler, no wire traffic — for every
// shard this rank contributes nothing to; since x + (−0.0) == x bit for bit
// in any combine order and the update kernels are elementwise, the resulting
// parameters are bit-identical to RunLocal's whole-tensor update.
//
// The gradient ReduceScatterV runs on gradComm — the communicator whose tag
// window the transport may mark lossy — while the parameter AllGatherV stays
// on comm: parameters must never quantize, or every rank's weights would
// degrade once per step regardless of error feedback.
func (s *shardedState) exchange(comm, gradComm *collective.Communicator, spec JobSpec, res *jaxpp.ActorResults, params []*jaxpp.Tensor) error {
	p := s.plan
	fg := s.flatG.Data()
	for i, gi := range res.GradIdx {
		if p.owners[gi] != s.rank {
			// Outside the contributed range the RS-V would never ship it:
			// the gradient would silently drop out of the sum.
			return fmt.Errorf("grad pack: rank %d handed gradient %d, which actor %d owns", s.rank, gi, p.owners[gi])
		}
		gd := res.Grads[i].Data()
		copy(fg[p.gradOff[gi]:p.gradOff[gi]+len(gd)], gd)
		tensor.Recycle(res.Grads[i])
	}
	if s.efRes != nil {
		// Error feedback over the contributed range, one quantization grid
		// per gradient tensor: fold the carried residual in, replace the
		// contribution with its own int8 round trip (so this rank reduces
		// exactly the values remote ranks decode), keep the new error for next
		// step. The residual L2 norm is observed per step — bounded norm means
		// the compression error re-enters the sum instead of accumulating.
		hq := obs.TrackTid(scQuantEF, s.rank)
		var sq float64
		rd := s.efRes.Data()
		for k, gi := range p.order {
			if p.owners[gi] != s.rank {
				continue
			}
			g := fg[p.off[k]:p.off[k+1]]
			r := rd[p.off[k]-s.contribLo : p.off[k+1]-s.contribLo]
			for i := range g {
				r[i] += g[i]
				g[i] = r[i]
			}
			dist.LossyRoundTrip(dist.DTInt8Q, g)
			for i := range g {
				r[i] -= g[i]
				sq += r[i] * r[i]
			}
		}
		obs.Observe(scQuantResidual, int64(math.Sqrt(sq)*1e9))
		hq.Stop()
	}

	hg := obs.TrackTid(scGradRS, s.rank)
	err := gradComm.ReduceScatterVSparseInto(s.gShard, s.flatG, p.counts, s.contribLo, s.contribHi, collective.OpSum, 0)
	hg.Stop()
	if err != nil {
		return fmt.Errorf("grad reduce-scatter: %w", err)
	}

	// The owned range reads its parameters straight from the param tensors,
	// one kernel call per tensor it spans: the kernels are elementwise, so
	// that is the whole-range update.
	lo := p.starts[s.rank]
	hi := lo + p.counts[s.rank]
	upd, red := s.uShard.Data(), s.gShard.Data()
	hs := obs.TrackTid(scSGD, s.rank)
	for k, gi := range p.order {
		a, b := max(p.off[k], lo), min(p.off[k+1], hi)
		if a >= b {
			continue
		}
		src := params[gi].Data()[a-p.off[k] : b-p.off[k]]
		if spec.Momentum != 0 {
			model.MomentumRange(upd[a-lo:b-lo], src, red[a-lo:b-lo], s.vel.Data()[a-lo:b-lo], spec.LR, spec.Momentum)
		} else {
			model.SGDRange(upd[a-lo:b-lo], src, red[a-lo:b-lo], spec.LR)
		}
	}
	hs.Stop()

	ha := obs.TrackTid(scParamAG, s.rank)
	err = comm.AllGatherVInto(s.flatP, s.uShard, p.counts)
	ha.Stop()
	if err != nil {
		return fmt.Errorf("param all-gatherv: %w", err)
	}
	// The param tensors the actors are stepped with mirror the flat vector.
	p.scatter(params, s.flatP.Data())
	return nil
}
