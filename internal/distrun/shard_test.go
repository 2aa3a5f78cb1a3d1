package distrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	jaxpp "repro"
	"repro/internal/collective"
	"repro/internal/runtime"
)

// TestShardPlanOwnerMajorLayout pins the owner-major flat layout — gradient
// tensors sort by (producing actor, gradient index), offsets are exact prefix
// sums, gradOff inverts the permutation — and the cut a world makes of it:
// held partitions [0, total) into each stage's replica-group chunks, and the
// layout itself does not move when the world does.
func TestShardPlanOwnerMajorLayout(t *testing.T) {
	owners := []int{1, 0, 2, 0}
	sizes := []int{3, 4, 2, 5}
	p, err := newShardPlan(owners, sizes)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{1, 3, 0, 2} // owner 0: g1,g3; owner 1: g0; owner 2: g2
	wantOff := []int{0, 4, 9, 12, 14}
	for k, gi := range wantOrder {
		if p.order[k] != gi {
			t.Fatalf("order %v, want %v", p.order, wantOrder)
		}
		if p.off[k] != wantOff[k] {
			t.Fatalf("off %v, want %v", p.off, wantOff)
		}
		if p.gradOff[gi] != wantOff[k] {
			t.Fatalf("gradOff[%d] = %d, want %d", gi, p.gradOff[gi], wantOff[k])
		}
	}
	if p.total != 14 {
		t.Fatalf("total %d, want 14", p.total)
	}

	// Two replicas of the three stages, everything in one fusion bucket per
	// stage: replica r ends the reduce half holding chunk r+1 of its stage,
	// so stage a's two halves go to ranks 3+a then a. Stage 0 is 9 elements
	// (5 + 4), stage 1 is 3 (2 + 1), stage 2 is 2 (1 + 1).
	want := []heldRange{{0, 5, 3}, {5, 9, 0}, {9, 11, 4}, {11, 12, 1}, {12, 13, 5}, {13, 14, 2}}
	if got := p.held(2, 3, 0); !slices.Equal(got, want) {
		t.Fatalf("held(2 replicas x 3 stages) = %v, want %v", got, want)
	}
	// One replica holds whole stages; a bucket cap that splits stage 0 into
	// two buckets changes nothing for it, the ranges merge.
	want = []heldRange{{0, 9, 0}, {9, 12, 1}, {12, 14, 2}}
	if got := p.held(1, 3, 4*8); !slices.Equal(got, want) {
		t.Fatalf("held(1 replica x 3 stages) = %v, want %v", got, want)
	}
}

// TestShardedStateMemoryIsOneOverWorld pins the optimizer-memory claim at the
// unit level: with equal stages, the velocity a rank keeps — for the ranges
// of its stage it reduces and updates, 1/replicas of the stage — is at most
// ceil(total/world) elements, versus a replicated full total.
func TestShardedStateMemoryIsOneOverWorld(t *testing.T) {
	owners := []int{0, 1, 2, 3}
	sizes := []int{100, 100, 100, 100}
	p, err := newShardPlan(owners, sizes)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]*jaxpp.Tensor, len(sizes))
	for i, n := range sizes {
		params[i] = jaxpp.NewTensor(n)
	}
	for _, replicas := range []int{1, 2, 3, 7} {
		spec := JobSpec{Stages: 4, DataParallel: replicas, Momentum: 0.9}
		world := spec.World()
		ceil := (p.total + world - 1) / world
		total := 0
		for r := 0; r < world; r++ {
			e, err := newStageEpilogue(spec, runtime.NewChanTransport(), p, params, r, dpBucketBytes)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, v := range e.vel {
				got += v.Size()
			}
			if got > ceil {
				t.Fatalf("world %d rank %d: velocity of %d elems, want <= ceil(%d/%d)=%d", world, r, got, p.total, world, ceil)
			}
			total += got
			e.release()
		}
		if total != p.total {
			t.Fatalf("world %d keeps velocity for %d of %d elements", world, total, p.total)
		}
	}
}

// TestShardedMatchesReplicated is the epilogue's acceptance test: the
// distributed epilogue (reduce half → update of the held ranges → gather
// half, inside each stage's replica group) must produce per-step losses AND
// final parameter bits identical to the dense in-process reference, for plain
// SGD and momentum, over real TCP ranks — including three and four replicas,
// where the combine order of a sum is more than one addition and has to be
// RunLocal's, with widths the replica count does not divide.
func TestShardedMatchesReplicated(t *testing.T) {
	configs := []struct {
		name   string
		stages int
		dp     int
		width  int
		lr     float64 // gradients sum over replicas: more of them, smaller steps
	}{
		{"pp2", 2, 0, 16, 0.5},
		{"pp3", 3, 0, 16, 0.5},
		{"dp2xpp2", 2, 2, 16, 0.5},
		{"dp2xpp4", 4, 2, 16, 0.5},
		{"dp3xpp2", 2, 3, 16, 0.1},
		{"dp4xpp1", 1, 4, 15, 0.1},
	}
	for _, cfg := range configs {
		for _, mu := range []float64{0, 0.9} {
			name := fmt.Sprintf("%s/momentum=%v", cfg.name, mu)
			t.Run(name, func(t *testing.T) {
				spec := JobSpec{
					Stages: cfg.stages, NumMB: 4, MBRows: 4, Width: cfg.width,
					Steps: 5, LR: cfg.lr, Momentum: mu, Schedule: "1f1b",
					DataParallel: cfg.dp, Seed: 21,
				}
				local, err := RunLocal(spec)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, launchWorld(t, spec), local)
			})
		}
	}
}

// TestFusedAndSingleTensorBucketsMatchReplicated drives the epilogue where a
// stage owns several gradient tensors and the bucket cap cuts them into a
// fused bucket and a single-tensor one — a shape JobSpec's one-weight stages
// never produce. Three replicas of a two-stage model with three 7×7 weights
// per stage (a 98-element fused bucket and a 49-element one, neither a
// multiple of three) step as six hosted-actor ranks over one transport, each
// with its own stageEpilogue; the in-process reference runs the same
// CompileSpec with the full DP all-reduce and a dense momentum update. Losses
// and every stage's parameters must agree bit for bit after every step.
func TestFusedAndSingleTensorBucketsMatchReplicated(t *testing.T) {
	const (
		stages, perStage, replicas = 2, 3, 3
		numMB, mbRows, width       = 2, 4, 7
		steps, bucketCap           = 4, 2 * width * width * 8
		lr, mu                     = 0.05, 0.9
	)
	const world, nparams = stages * replicas, stages * perStage
	if got := collective.NumBuckets([]int{width * width, width * width, width * width}, bucketCap); got != 2 {
		t.Fatalf("a stage's gradients form %d buckets, want 2 (one fused, one single-tensor)", got)
	}
	shapes := make([][]int, nparams)
	for i := range shapes {
		shapes[i] = []int{width, width}
	}
	cspec := jaxpp.CompileSpec{
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			h := mb[0]
			for i, w := range params {
				h = b.ReLU(b.MatMul(h, w))
				if i%perStage == perStage-1 && i+1 < len(params) {
					h = b.PipelineYield(h)
				}
			}
			return b.CrossEntropy(h, mb[1])
		},
		ParamShapes:   shapes,
		BatchShapes:   [][]int{{mbRows, width}, {mbRows, width}},
		Schedule:      jaxpp.OneFOneB(stages, numMB),
		DataParallel:  replicas,
		DPBucketBytes: bucketCap,
	}
	rng := jaxpp.NewRNG(17)
	initial := make([]*jaxpp.Tensor, nparams)
	for i := range initial {
		initial[i] = rng.Xavier(width, width)
	}
	rows := replicas * numMB * mbRows
	batch := []*jaxpp.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width)}
	clone := func() []*jaxpp.Tensor {
		out := make([]*jaxpp.Tensor, nparams)
		for i, p := range initial {
			out[i] = p.Clone()
		}
		return out
	}

	// Reference: every actor in one process, full all-reduce, dense update.
	ref, err := jaxpp.NewRemoteMesh(world).Compile(cspec)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantParams := clone()
	vel := newVelocity(JobSpec{Momentum: mu}, wantParams)
	wantLosses := make([][]float64, steps) // [step][global microbatch]
	for s := range wantLosses {
		losses, grads, err := ref.Step(wantParams, batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range losses {
			wantLosses[s] = append(wantLosses[s], l.Data()[0])
		}
		if err := applyUpdate(JobSpec{LR: lr, Momentum: mu}, wantParams, wantParams, grads, vel); err != nil {
			t.Fatal(err)
		}
	}

	// Distributed: one goroutine per rank, each hosting its own actor.
	tr := runtime.NewChanTransport()
	spec := JobSpec{Stages: stages, DataParallel: replicas, LR: lr, Momentum: mu}
	gotParams := make([][]*jaxpp.Tensor, world)
	gotLosses := make([][][]float64, world) // [rank][step][global microbatch], NaN where not this rank's
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = func() error {
				var ep *stageEpilogue
				hosted := cspec
				hosted.HostActors = []int{rank}
				hosted.GradSync = func(actor int, grads []*jaxpp.Tensor) error { return ep.reduce(actor, grads) }
				ts, err := jaxpp.NewRemoteMeshWithTransport(world, tr).Compile(hosted)
				if err != nil {
					return err
				}
				defer ts.Close()
				params := clone()
				plan, err := planForStep(ts, params)
				if err != nil {
					return err
				}
				if ep, err = newStageEpilogue(spec, tr, plan, params, rank, bucketCap); err != nil {
					return err
				}
				defer ep.release()
				res := &jaxpp.ActorResults{}
				for s := 0; s < steps; s++ {
					if err := ts.StepActor(rank, params, batch); err != nil {
						return err
					}
					if err := ts.TakeActorResultsInto(rank, res); err != nil {
						return err
					}
					row := make([]float64, replicas*numMB)
					for i := range row {
						row[i] = math.NaN()
					}
					for i, mb := range res.LossMB {
						row[mb] = res.Losses[i].Data()[0]
					}
					gotLosses[rank] = append(gotLosses[rank], row)
					if err := ep.finish(res); err != nil {
						return err
					}
				}
				gotParams[rank] = params
				return nil
			}()
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := range gotParams {
		for i := (rank % stages) * perStage; i < (rank%stages+1)*perStage; i++ {
			gd, wd := gotParams[rank][i].Data(), wantParams[i].Data()
			for j := range wd {
				if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
					t.Fatalf("rank %d param %d elem %d: %v != reference %v", rank, i, j, gd[j], wd[j])
				}
			}
		}
		for s, row := range gotLosses[rank] {
			for mb, l := range row {
				if !math.IsNaN(l) && math.Float64bits(l) != math.Float64bits(wantLosses[s][mb]) {
					t.Fatalf("rank %d step %d mb %d: loss %v != reference %v", rank, s, mb, l, wantLosses[s][mb])
				}
			}
		}
	}
	if first, last := wantLosses[0][0], wantLosses[steps-1][0]; !(last < first) {
		t.Fatalf("reference did not train: loss %v -> %v", first, last)
	}
}

// wireModel is the closed form of what one rank's data plane sends in one
// steady-state step of spec, and in how many messages: its pipeline
// activations, its chunks of the world-wide loss gather, and the two halves
// of the epilogue inside its stage's replica group — the reduce half at the
// wire dtype, the gather half always f64. A ring pass over R ranks sends
// every chunk but one: the reduce half keeps back the chunk it ends up owning
// (rank+1), the gather half the one it receives last (rank+2).
func wireModel(spec JobSpec, rank int) sendCount {
	world, pp, R := spec.World(), spec.Stages, spec.Replicas()
	var n sendCount
	msg := func(count, elems int, int8q bool) {
		n.frames += count
		if int8q {
			n.bytes += int64(count * (8 + elems))
		} else {
			n.bytes += int64(count * elems * 8)
		}
	}
	// Activations forward from every stage but the last, their gradients
	// backward from every stage but the first: one message a microbatch.
	if a := rank % pp; a+1 < pp {
		msg(spec.NumMB, spec.MBRows*spec.Width, false)
	}
	if a := rank % pp; a > 0 {
		msg(spec.NumMB, spec.MBRows*spec.Width, false)
	}
	// Loss gather: world-1 hops of one rank's shard, padded to the NumMB
	// losses a last-stage rank owns.
	msg(world-1, spec.NumMB, false)
	// The stage's gradient, one Width x Width tensor in one bucket.
	stage, r := spec.Width*spec.Width, rank/pp
	chunk := func(i int) int { return collective.EvenCounts(stage, R)[(i%R+R)%R] }
	if R > 1 {
		for s := 0; s < R-1; s++ {
			msg(1, chunk(r-s), spec.WireDType == "int8q")
			msg(1, chunk(r+1-s), false)
		}
	}
	return n
}

// TestStepWireBytesMatchModel verifies the step's traffic instead of assuming
// it: on a pipeline-only shape and a DP×PP shape whose stage no replica count
// divides, f64 and int8q, every rank's SendCount() must grow per steady-state
// step by exactly wireModel — bytes and messages. (A job of more steps differs
// from a shorter one by steps alone: set-up and the end-of-job parameter
// collection cancel.) The same closed form gives the benchmark workloads'
// wire_bytes_per_step, pinned below as the constants the README derives.
func TestStepWireBytesMatchModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"pp4", JobSpec{Stages: 4, NumMB: 16, MBRows: 8, Width: 32, Schedule: "1f1b", LR: 0.02}},
		{"dp2xpp2", JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 15, Schedule: "1f1b", LR: 0.01}},
		{"dp3xpp1", JobSpec{Stages: 1, DataParallel: 3, NumMB: 2, MBRows: 4, Width: 16, Schedule: "1f1b", LR: 0.01, Momentum: 0.9}},
	} {
		for _, dtype := range []string{"f64", "int8q"} {
			t.Run(tc.name+"/"+dtype, func(t *testing.T) {
				spec := tc.spec
				spec.WireDType, spec.Seed = dtype, 3
				const short, long = 2, 5
				spec.Steps = short
				_, base := launchWorldCounting(t, spec)
				spec.Steps = long
				_, sent := launchWorldCounting(t, spec)
				for rank := range sent {
					want := wireModel(spec, rank)
					frames := sent[rank].frames - base[rank].frames
					bytes := sent[rank].bytes - base[rank].bytes
					if frames != (long-short)*want.frames || bytes != (long-short)*want.bytes {
						t.Errorf("rank %d sent %d B in %d messages over %d steps, model says %d B in %d a step",
							rank, bytes, frames, long-short, want.bytes, want.frames)
					}
				}
			})
		}
	}

	// The benchmark's lossless workloads, as bench/workloads.go shapes them.
	for _, w := range []struct {
		name string
		spec JobSpec
		want int64
	}{
		{"pp4-compute", JobSpec{Stages: 4, NumMB: 8, MBRows: 128, Width: 256}, 12_583_680},
		{"pp4-small", JobSpec{Stages: 4, NumMB: 16, MBRows: 8, Width: 32}, 198_144},
		{"dp2x2-dense", JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512}, 8_519_872},
	} {
		var got int64
		for rank := 0; rank < w.spec.World(); rank++ {
			got += wireModel(w.spec, rank).bytes
		}
		if got != w.want {
			t.Errorf("%s: model says %d B a step, want %d", w.name, got, w.want)
		}
	}
}

// reportBytes serializes everything a Report carries about the run's math —
// resume point, every loss, every final parameter — bit for bit.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put(int64(rep.Rank))
	put(int64(rep.World))
	put(int64(rep.StartStep))
	for _, mb := range rep.MBLosses {
		put(mb)
	}
	put(rep.StepLosses)
	for _, p := range rep.FinalParams {
		put(p.Data())
	}
	return buf.Bytes()
}

// TestShardedPayloadFieldHasNoEffect pins that JobSpec.Sharded is accepted
// and ignored: rendezvous payloads that differ only in an explicit
// "sharded":false / "sharded":true decode and run to byte-identical Reports.
func TestShardedPayloadFieldHasNoEffect(t *testing.T) {
	base := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 4, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 9,
	}
	var reps [][]byte
	for _, v := range []bool{false, true} {
		payload := strings.Replace(string(base.Marshal()), "{", fmt.Sprintf(`{"sharded":%v,`, v), 1)
		spec, err := UnmarshalJobSpec([]byte(payload))
		if err != nil {
			t.Fatalf("payload %s: %v", payload, err)
		}
		reps = append(reps, reportBytes(t, launchWorld(t, spec)))
	}
	if !bytes.Equal(reps[0], reps[1]) {
		t.Fatal(`"sharded":true changed the run`)
	}
}

// TestExchangeRejectsUnownedGradient pins the guard in front of the update: a
// rank handed anything but its own stage's gradients must fail before it
// touches a parameter or enters the gather — not hang, not update a range
// from the wrong tensor, not leave a parameter range stale in silence.
func TestExchangeRejectsUnownedGradient(t *testing.T) {
	p, err := newShardPlan([]int{0, 1}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	params := []*jaxpp.Tensor{jaxpp.NewTensor(4), jaxpp.NewTensor(4)}
	e, err := newStageEpilogue(JobSpec{Stages: 2, DataParallel: 2, LR: 0.1}, runtime.NewChanTransport(), p, params, 0, dpBucketBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	grad := jaxpp.NewTensor(4)
	grad.Data()[0] = 1
	for _, idx := range [][]int{{1}, {0, 1}, {}} {
		res := &jaxpp.ActorResults{GradIdx: idx, Grads: make([]*jaxpp.Tensor, len(idx))}
		for i := range res.Grads {
			res.Grads[i] = grad
		}
		err = e.finish(res)
		if err == nil || !strings.Contains(err.Error(), "its stage produces [0]") {
			t.Fatalf("finish accepted gradients %v on rank 0 (stage 0 produces gradient 0): %v", idx, err)
		}
	}
	if params[0].Data()[0] != 0 {
		t.Fatal("a refused gradient reached the parameters")
	}
}

// copyCkptDir gives a resumed leg its own copy of a checkpoint directory:
// every resumed run writes (and prunes) checkpoints of its own.
func copyCkptDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardedCheckpointRestoresAcrossWorlds is the checkpoint-format
// acceptance test, in both directions between the two writers. A world-4
// distributed momentum run commits an owner-major checkpoint and RunLocal
// (world 1) commits the dense per-tensor layout of the same state; each is
// then restored by a world-3 distributed job (re-deriving owner tables and
// re-slicing the velocity vector for the new world) and by RunLocal at the
// same data-parallel width. All four resumed runs must agree bit for bit —
// the owner-major flat vector pivots every (layout, world) pair, and the
// retained dense reader stays covered.
func TestShardedCheckpointRestoresAcrossWorlds(t *testing.T) {
	base := JobSpec{
		Stages: 1, DataParallel: 4, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.1, Momentum: 0.9, Schedule: "1f1b", Seed: 7,
		CkptEvery: 5,
	}
	leg1 := base
	leg1.Steps = 7 // "crash" after step 7; the committed checkpoint is step 5
	ownerMajor, dense := leg1, leg1
	ownerMajor.CkptDir, dense.CkptDir = t.TempDir(), t.TempDir()
	if rep := launchWorld(t, ownerMajor); rep.StartStep != 0 {
		t.Fatalf("fresh run claims resume from %d", rep.StartStep)
	}
	if _, err := RunLocal(dense); err != nil {
		t.Fatal(err)
	}

	var want *Report
	for _, src := range []struct{ layout, dir string }{
		{"owner-major world 4", ownerMajor.CkptDir},
		{"dense world 1", dense.CkptDir},
	} {
		spec := base
		spec.DataParallel = 3 // 4 replicas wrote it, 3 resume
		spec.CkptDir = copyCkptDir(t, src.dir)
		local, err := RunLocal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.CkptDir = copyCkptDir(t, src.dir)
		distributed := launchWorld(t, spec)
		for _, rep := range []*Report{local, distributed} {
			if rep.StartStep != 5 {
				t.Fatalf("%s checkpoint: world %d resumed at %d, want 5", src.layout, rep.World, rep.StartStep)
			}
			if want == nil {
				want = rep
			}
			requireBitIdentical(t, rep, want)
		}
	}
}

// TestResumesParentDenseDistributedCheckpoint is the compatibility guard for
// checkpoints older builds left on disk: testdata/dense-world2 was written by
// the last commit that had a dense distributed epilogue (world 2, per-tensor
// velocities round-robin over two shard files; Stages 2, NumMB 2, MBRows 2,
// Width 4, LR 0.5, Momentum 0.9, 1f1b, Seed 5, CkptEvery 2, stopped after
// step 3). Run must resume from it bit-identically to RunLocal resuming from
// the same directory.
func TestResumesParentDenseDistributedCheckpoint(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 2, Width: 4,
		Steps: 10, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", Seed: 5,
		CkptEvery: 2,
	}
	spec.CkptDir = copyCkptDir(t, "testdata/dense-world2")
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CkptDir = copyCkptDir(t, "testdata/dense-world2")
	got := launchWorld(t, spec)
	if local.StartStep != 2 || got.StartStep != 2 {
		t.Fatalf("resumed at step %d (local) / %d (distributed), want 2", local.StartStep, got.StartStep)
	}
	requireBitIdentical(t, got, local)
}

// TestResumesParentShardedDistributedCheckpoint is the compatibility guard
// for the sharded checkpoints older builds left on disk:
// testdata/sharded-world4 was written by the last commit whose epilogue was
// the world-wide RS-V → update → AGV exchange (world 4 = 2 replicas × 2
// stages, parameters round-robin over the world, velocity as one balanced
// 13/13/12/12 slice of the flat vector per rank; NumMB 2, MBRows 2, Width 5,
// LR 0.5, Momentum 0.9, 1f1b, Seed 5, CkptEvery 2, stopped after step 3). It
// must resume into the same world, into a world of 2 (one replica) and under
// RunLocal, each bit-identical to RunLocal resuming from the same directory
// at the same data-parallel width — and at the writer's width, to a run that
// never stopped.
func TestResumesParentShardedDistributedCheckpoint(t *testing.T) {
	base := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 2, Width: 5,
		Steps: 8, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", Seed: 5,
		CkptEvery: 2,
	}
	for _, dp := range []int{2, 0} {
		spec := base
		spec.DataParallel = dp
		uninterrupted, err := RunLocal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.CkptDir = copyCkptDir(t, "testdata/sharded-world4")
		local, err := RunLocal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.CkptDir = copyCkptDir(t, "testdata/sharded-world4")
		got := launchWorld(t, spec)
		if local.StartStep != 2 || got.StartStep != 2 {
			t.Fatalf("world %d resumed at step %d (local) / %d (distributed), want 2", spec.World(), local.StartStep, got.StartStep)
		}
		requireBitIdentical(t, got, local)
		if dp == 2 {
			requireResumedSuffix(t, got, uninterrupted, 2)
		}
	}
}
