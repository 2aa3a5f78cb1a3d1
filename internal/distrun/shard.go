package distrun

import (
	"fmt"
	"log"
	"math"
	"slices"
	"sort"

	jaxpp "repro"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Gradient-exchange profiling scopes: the two collective halves of the step
// epilogue (the names predate the stage-local epilogue and are kept for the
// benchmark's per-layer metrics: reduce half, gather half). Envelope scopes
// (they contain the collective and wire leaf spans), so the breakdown
// classifier excludes them; step/sgd times the update between them.
var (
	scGradRS  = obs.Scope("step/grad_reducescatter")
	scParamAG = obs.Scope("step/param_allgatherv")
)

// dpBucketBytes is the gradient-fusion bucket cap of both runners: RunLocal's
// DP all-reduce and the two halves of Run's epilogue must cut a stage's
// gradient list identically, or their per-element combine orders part ways.
// Zero is collective.DefaultBucketBytes.
const dpBucketBytes = 0

// gradGroupID and paramGroupID are the tag windows of a stage's replica group
// for the reduce half and the gather half of the epilogue. Only the first is
// ever marked lossy on the transport, so a compressed wire dtype touches
// gradient frames and nothing else: parameters must never quantize, or every
// rank's weights would degrade once per step regardless of error feedback.
// Replica groups of different stages share no rank and reuse the two IDs.
// finalGroupID is the window of the end-of-job collection of parameters and
// losses (collectResults): the two-rank groups {r, 0} of every rank r that
// is a stage's replica-0 rank or owns losses.
const (
	gradGroupID  = worldGroupID + 1
	paramGroupID = worldGroupID + 2
	finalGroupID = worldGroupID + 3
)

// shardPlan is the owner-major flat layout of the gradient/parameter vector:
// gradient tensors ordered by producing actor (the replica-0 stage actors,
// from program metadata every rank compiles identically), then by gradient
// index, and concatenated into one flat vector, so a stage's tensors are one
// contiguous span of it in program order. The layout depends only on the
// compiled program — not on the world size — which is what makes it the
// canonical form optimizer state takes in checkpoints: any world cuts it into
// the pieces its ranks hold (held), and any world reassembles it.
type shardPlan struct {
	total int
	// owners[gi] is the actor that produces gradient gi.
	owners []int
	// order[k] is the gradient index occupying flat range [off[k], off[k+1]).
	order []int
	off   []int
	// gradOff[gi] is the flat offset of gradient gi (inverse of order/off).
	gradOff []int
}

// newShardPlan derives the plan from the gradient owner table and tensor
// sizes (owners[gi] is the producing actor of gradient gi, sizes[gi] its
// element count).
func newShardPlan(owners, sizes []int) (*shardPlan, error) {
	if len(owners) != len(sizes) {
		return nil, fmt.Errorf("distrun: shard plan wants %d owners for %d tensors", len(owners), len(sizes))
	}
	p := &shardPlan{
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
	return p, nil
}

// planForStep builds the plan for a compiled step: owners come from the
// shared program metadata (TrainStep.GradOwners), sizes from the parameters
// the gradients mirror.
func planForStep(ts *jaxpp.TrainStep, params []*jaxpp.Tensor) (*shardPlan, error) {
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = p.Size()
	}
	return newShardPlan(ts.GradOwners(), sizes)
}

// scatter unpacks the owner-major flat vector into the tensor list.
func (p *shardPlan) scatter(ts []*jaxpp.Tensor, flat []float64) {
	for k, gi := range p.order {
		ts[gi].CopyFrom(flat[p.off[k]:p.off[k+1]])
	}
}

// heldRange is one range [lo, hi) of the flat vector and the rank that
// updates it, and so holds its optimizer state.
type heldRange struct{ lo, hi, rank int }

// held cuts the flat vector into the ranges the ranks of a replicas × pp
// world update, ascending: inside stage a's span, what the reduce half of the
// bucketed all-reduce leaves fully reduced (collective.OwnedRanges) on each
// rank r·pp+a of the stage's replica group.
func (p *shardPlan) held(replicas, pp, bucketBytes int) []heldRange {
	var out []heldRange
	for k := 0; k < len(p.order); {
		stage := p.owners[p.order[k]]
		base := p.off[k]
		var sizes []int
		for ; k < len(p.order) && p.owners[p.order[k]] == stage; k++ {
			sizes = append(sizes, p.off[k+1]-p.off[k])
		}
		for r := 0; r < replicas; r++ {
			for _, o := range collective.OwnedRanges(sizes, bucketBytes, replicas, r) {
				out = append(out, heldRange{base + o.Lo, base + o.Hi, r*pp + stage})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

// stageEpilogue is one rank's share of the distributed step epilogue, which
// never leaves the replica group of the stage the rank hosts (the ranks
// a, pp+a, 2·pp+a, … running pipeline position a):
//
//	reduce — the reduce half of the bucketed ring all-reduce over the stage's
//	         gradient accumulators, installed as the actor's step epilogue so
//	         it starts when the actor's program ends;
//	update — the optimizer kernel over exactly the ranges that half left
//	         fully reduced here, straight from the gradient tensors into the
//	         parameter tensors, against velocity kept for those ranges alone;
//	gather — the gather half over the stage's parameter tensors.
//
// Per element the reduce half combines in the order RunLocal's full
// all-reduce does, the kernels are elementwise and the gather copies bits, so
// the stage's parameters end every step bit-identical to RunLocal's. With one
// replica both halves are empty and the epilogue is a local update. Nothing
// here is allocated per step.
type stageEpilogue struct {
	rank        int
	lr, mu      float64
	bucketBytes int
	plan        *shardPlan
	// all is every rank's share of the flat vector (plan.held) — the piece
	// table of a checkpoint's optimizer state; mine are this rank's.
	all, mine []heldRange
	// gradIdx lists the gradients (= parameters) of the hosted stage in
	// program order; params are the tensors the stage's actor is stepped
	// with. Between steps these — and only these — of a rank's parameter
	// list are current.
	gradIdx []int
	params  []*tensor.Tensor
	// grads and gather are the replica group's communicators on gradGroupID
	// and paramGroupID.
	grads, gather *collective.Communicator
	// vel[j] is the momentum velocity of mine[j]: 1/replicas of the stage,
	// 1/world of the model when stages are equal. nil for plain SGD.
	vel []*tensor.Tensor
	// ef, when non-empty, arms int8 error feedback: one entry per wire frame
	// the reduce half sends first (collective.FirstSentRanges of the stage).
	ef []efRange
}

// efRange is the error-feedback state of one frame's extent: the quantization
// residual of its elements — 1/replicas of the stage over a rank's ranges —
// which never travels and is not checkpointed (a restore restarts
// compensation from zero), and where the extent lies in the stage's gradient
// tensors. g and r are dist.QuantizeWithFeedback's arguments: r cut from res
// once, g refilled every step from that step's tensors.
type efRange struct {
	res    *tensor.Tensor
	pieces []efPiece
	g, r   [][]float64
}

// efPiece is elements [lo, hi) of the stage's grad-th gradient tensor.
type efPiece struct{ grad, lo, hi int }

// newStageEpilogue builds the epilogue of the stage this rank hosts in a
// spec.Replicas() × spec.Stages world over tr, and logs the rank's
// optimizer-state footprint (the line the CI memory assertion greps).
func newStageEpilogue(spec JobSpec, tr transport.Transport, plan *shardPlan, params []*jaxpp.Tensor, rank, bucketBytes int) (*stageEpilogue, error) {
	pp, replicas := spec.Stages, spec.Replicas()
	e := &stageEpilogue{
		rank: rank, lr: spec.LR, mu: spec.Momentum, bucketBytes: bucketBytes,
		plan: plan, all: plan.held(replicas, pp, bucketBytes),
	}
	for gi, owner := range plan.owners {
		if owner == rank%pp {
			e.gradIdx = append(e.gradIdx, gi)
			e.params = append(e.params, params[gi])
		}
	}
	peers := make([]int, replicas)
	for r := range peers {
		peers[r] = r*pp + rank%pp
	}
	var err error
	if e.grads, err = commOn(tr, peers, gradGroupID, rank); err != nil {
		return nil, err
	}
	if e.gather, err = commOn(tr, peers, paramGroupID, rank); err != nil {
		return nil, err
	}
	heldBytes := 0
	for _, h := range e.all {
		if h.rank != rank {
			continue
		}
		e.mine = append(e.mine, h)
		if e.mu != 0 {
			e.vel = append(e.vel, tensor.GetScratchZero(h.hi-h.lo))
			heldBytes += 8 * (h.hi - h.lo)
		}
	}
	denseBytes, pct := 0, 0.0
	if e.mu != 0 {
		denseBytes = 8 * plan.total
		pct = 100 * float64(heldBytes) / float64(denseBytes)
	}
	log.Printf("distrun: rank %d sharded optimizer state %d/%d bytes (%.1f%% of replicated, world %d)",
		rank, heldBytes, denseBytes, pct, replicas*pp)
	return e, nil
}

// release recycles the epilogue's buffers (keeps a job-retrying process's
// scratch pool warm).
func (e *stageEpilogue) release() {
	for _, t := range e.vel {
		tensor.Recycle(t)
	}
	for _, f := range e.ef {
		tensor.Recycle(f.res)
	}
}

// armErrorFeedback turns int8 error feedback on for subsequent steps, over
// exactly what the reduce half ships as this rank's own values: the chunk of
// every fusion bucket it sends at hop 0, each on the grid of the frame that
// carries it. Everything else leaves the rank only inside a partial sum, or
// not at all, and stays as the backward pass produced it. A stage with one
// replica sends no gradient and has nothing to compensate.
func (e *stageEpilogue) armErrorFeedback() {
	sizes := make([]int, len(e.params))
	for k, p := range e.params {
		sizes[k] = p.Size()
	}
	for _, sent := range collective.FirstSentRanges(sizes, e.bucketBytes, e.grads.Size(), e.grads.Rank()) {
		f := efRange{res: tensor.GetScratchZero(sent.Hi - sent.Lo)}
		r, off := f.res.Data(), 0
		for k, sz := range sizes {
			if lo, hi := max(sent.Lo, off), min(sent.Hi, off+sz); lo < hi {
				f.pieces = append(f.pieces, efPiece{k, lo - off, hi - off})
				f.r = append(f.r, r[:hi-lo])
				r = r[hi-lo:]
			}
			off += sz
		}
		f.g = make([][]float64, len(f.pieces))
		e.ef = append(e.ef, f)
	}
}

// setVelocity loads this rank's share of a restored flat velocity vector.
func (e *stageEpilogue) setVelocity(flat []float64) {
	for j, v := range e.vel {
		v.CopyFrom(flat[e.mine[j].lo:e.mine[j].hi])
	}
}

// reduce is the reduce half, in the form CompileSpec.GradSync wants it: it
// runs on the actor's goroutine when the actor's program ends, over the
// stage's gradient accumulators in program order.
func (e *stageEpilogue) reduce(actor int, grads []*tensor.Tensor) error {
	if actor != e.rank || len(grads) != len(e.params) {
		return fmt.Errorf("distrun: rank %d (%d stage gradients) asked to reduce %d gradients of actor %d", e.rank, len(e.params), len(grads), actor)
	}
	if len(e.ef) > 0 {
		// The residual L2 norm is observed per step — a bounded norm means the
		// compression error re-enters the sum instead of accumulating.
		hq := obs.TrackTid(scQuantEF, e.rank)
		var sq float64
		for _, f := range e.ef {
			for i, p := range f.pieces {
				f.g[i] = grads[p.grad].Data()[p.lo:p.hi]
			}
			sq += dist.QuantizeWithFeedback(f.g, f.r)
		}
		obs.Observe(scQuantResidual, int64(math.Sqrt(sq)*1e9))
		hq.Stop()
	}
	hg := obs.TrackTid(scGradRS, e.rank)
	err := e.grads.ReduceBucketsInPlace(grads, collective.OpSum, e.bucketBytes)
	hg.Stop()
	if err != nil {
		return fmt.Errorf("distrun: rank %d grad reduce: %w", e.rank, err)
	}
	return nil
}

// finish completes the step from the actor's results: update the ranges this
// rank holds from its reduced gradients, then gather the stage's parameters
// from the replica group. The gradient tensors are consumed.
func (e *stageEpilogue) finish(res *jaxpp.ActorResults) error {
	if !slices.Equal(res.GradIdx, e.gradIdx) {
		// A gradient of another stage would silently miss its update, and a
		// missing one leave a stale parameter range behind.
		return fmt.Errorf("rank %d handed gradients %v, its stage produces %v", e.rank, res.GradIdx, e.gradIdx)
	}
	hs := obs.TrackTid(scSGD, e.rank)
	for j, h := range e.mine {
		for k, p := range e.params {
			off := e.plan.gradOff[e.gradIdx[k]]
			a, b := max(h.lo, off), min(h.hi, off+p.Size())
			if a >= b {
				continue
			}
			pd, gd := p.Data()[a-off:b-off], res.Grads[k].Data()[a-off:b-off]
			if e.mu != 0 {
				model.MomentumRange(pd, pd, gd, e.vel[j].Data()[a-h.lo:b-h.lo], e.lr, e.mu)
			} else {
				model.SGDRange(pd, pd, gd, e.lr)
			}
		}
	}
	hs.Stop()
	for _, g := range res.Grads {
		tensor.Recycle(g)
	}
	ha := obs.TrackTid(scParamAG, e.rank)
	err := e.gather.GatherBucketsInPlace(e.params, e.bucketBytes)
	ha.Stop()
	if err != nil {
		return fmt.Errorf("param gather: %w", err)
	}
	return nil
}

// collectResults hands rank 0 what it reports after the last of steps steps,
// over the two-rank groups {r, 0}: first, for every stage rank 0 does not
// host, that stage's replica-0 rank streams the stage's parameters into
// rank 0's list (a two-rank broadcast per tensor); then every loss-owning
// rank other than 0 its loss history (one broadcast). The order is the
// program's gradient order, then rank order, on every rank alike. losses is
// this rank's history, step-major in lossesByRank[rank] order. On rank 0 the
// result holds every rank's history by rank (nil where a rank owns no loss);
// every other rank gets nil.
func collectResults(tr transport.Transport, plan *shardPlan, params []*jaxpp.Tensor, lossesByRank [][]int, losses []float64, steps, rank int) ([][]float64, error) {
	comms := map[int]*collective.Communicator{}
	commWith := func(r int) (*collective.Communicator, error) {
		if comms[r] == nil {
			comm, err := commOn(tr, []int{r, 0}, finalGroupID, rank)
			if err != nil {
				return nil, err
			}
			comms[r] = comm
		}
		return comms[r], nil
	}
	for gi, owner := range plan.owners {
		if owner == 0 || (rank != 0 && rank != owner) {
			continue
		}
		comm, err := commWith(owner)
		if err != nil {
			return nil, err
		}
		if err := comm.BroadcastInto(params[gi], 0); err != nil {
			return nil, fmt.Errorf("distrun: rank %d collecting parameter %d from rank %d: %w", rank, gi, owner, err)
		}
	}
	var histories [][]float64
	if rank == 0 {
		histories = make([][]float64, len(lossesByRank))
	}
	for r, mbs := range lossesByRank {
		if len(mbs) == 0 || (rank != 0 && rank != r) {
			continue
		}
		if r == rank && len(losses) != steps*len(mbs) {
			return nil, fmt.Errorf("distrun: rank %d holds %d losses, %d steps of %d microbatches want %d", rank, len(losses), steps, len(mbs), steps*len(mbs))
		}
		if r == 0 {
			histories[0] = losses
			continue
		}
		var h *tensor.Tensor
		if r == rank {
			h = tensor.View(losses, len(losses))
		} else {
			h = tensor.New(steps * len(mbs))
		}
		comm, err := commWith(r)
		if err != nil {
			return nil, err
		}
		if err := comm.BroadcastInto(h, 0); err != nil {
			return nil, fmt.Errorf("distrun: rank %d collecting the losses of rank %d: %w", rank, r, err)
		}
		if rank == 0 {
			histories[r] = h.Data()
		}
	}
	return histories, nil
}
