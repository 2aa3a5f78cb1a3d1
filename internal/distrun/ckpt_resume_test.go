package distrun

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	jaxpp "repro"
	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/stage"
	"repro/internal/tensor"
)

// requireResumedSuffix checks a resumed report against the uninterrupted
// reference: the resume point, the per-microbatch losses of every step after
// it, and the final parameters must all match bit for bit. This is the
// recovery guarantee — a crash plus restore is invisible in the math.
func requireResumedSuffix(t *testing.T, got, want *Report, from int) {
	t.Helper()
	if got.StartStep != from {
		t.Fatalf("resumed at step %d, want %d", got.StartStep, from)
	}
	if len(got.MBLosses) != len(want.MBLosses)-from {
		t.Fatalf("resumed run logged %d steps, want %d", len(got.MBLosses), len(want.MBLosses)-from)
	}
	for s := range got.MBLosses {
		for mb := range got.MBLosses[s] {
			g, w := got.MBLosses[s][mb], want.MBLosses[s+from][mb]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d mb %d: loss %v != reference %v", s+from, mb, g, w)
			}
		}
	}
	if len(got.FinalParams) != len(want.FinalParams) {
		t.Fatalf("final params: %d vs %d", len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		gd, wd := got.FinalParams[i].Data(), want.FinalParams[i].Data()
		for j := range wd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatalf("param %d elem %d: %v != %v", i, j, gd[j], wd[j])
			}
		}
	}
}

// TestLocalResumeBitIdenticalWithMomentum is the acceptance pin for the
// checkpoint format: interrupt a momentum-SGD run after its step-5
// checkpoint, resume in a fresh process state, and require the tail of the
// run — losses and final parameters — bit-identical to never having stopped.
// Momentum matters here: it proves the optimizer state (velocity) round-trips
// too, not just the parameters.
func TestLocalResumeBitIdenticalWithMomentum(t *testing.T) {
	base := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", Seed: 1,
	}
	ref, err := RunLocal(base) // uninterrupted, no checkpointing at all
	if err != nil {
		t.Fatal(err)
	}

	ckptSpec := base
	ckptSpec.CkptDir = t.TempDir()
	ckptSpec.CkptEvery = 5

	// Leg 1: "crash" after step 7 (the only committed checkpoint is step 5).
	leg1 := ckptSpec
	leg1.Steps = 7
	rep1, err := RunLocal(leg1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.StartStep != 0 {
		t.Fatalf("fresh run claims resume from %d", rep1.StartStep)
	}

	// Leg 2: full spec, same directory — must restore step 5 and replay the
	// remaining 7 steps exactly.
	rep2, err := RunLocal(ckptSpec)
	if err != nil {
		t.Fatal(err)
	}
	requireResumedSuffix(t, rep2, ref, 5)

	// Checkpointing itself must not perturb the math: a run that writes
	// checkpoints but never crashes is bit-identical to one that doesn't.
	clean := base
	clean.CkptDir = t.TempDir()
	clean.CkptEvery = 5
	rep3, err := RunLocal(clean)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, rep3, ref)
}

// TestDistributedResumeBitIdentical runs the same interrupt/resume sequence
// across 4 real TCP ranks (2 replicas × 2 stages): every rank writes its
// shard, rank 0 commits the manifest, and the reformed (same-size) world
// restores and finishes bit-identical to the uninterrupted local reference.
func TestDistributedResumeBitIdentical(t *testing.T) {
	base := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 3,
	}
	ref, err := RunLocal(base)
	if err != nil {
		t.Fatal(err)
	}

	ckptSpec := base
	ckptSpec.CkptDir = t.TempDir()
	ckptSpec.CkptEvery = 5

	leg1 := ckptSpec
	leg1.Steps = 7
	if rep := launchWorld(t, leg1); rep.StartStep != 0 {
		t.Fatalf("fresh distributed run claims resume from %d", rep.StartStep)
	}
	rep := launchWorld(t, ckptSpec)
	requireResumedSuffix(t, rep, ref, 5)
}

// TestCheckpointDisagreementFailsEveryRank resumes a 2×2 job with one rank
// pointed at a copy of the checkpoint directory that lacks the newest step, as
// if a shard only that rank can see were corrupt: rank 1 restores step 5 while
// the others restore step 10. No rank may train from the mixed state — every
// rank's Run must fail promptly with an error naming both steps.
func TestCheckpointDisagreementFailsEveryRank(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 3,
		CkptDir: t.TempDir(), CkptEvery: 5,
	}
	launchWorld(t, spec) // commits steps 5 and 10
	stale := t.TempDir()
	if err := os.CopyFS(stale, os.DirFS(spec.CkptDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(ckpt.StepDir(stale, 10)); err != nil {
		t.Fatal(err)
	}

	errs := make([]error, spec.World())
	took := make([]time.Duration, spec.World())
	launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
		if sess.Rank == 1 {
			spec.CkptDir = stale
		}
		start := time.Now()
		_, errs[sess.Rank] = Run(sess, spec)
		took[sess.Rank] = time.Since(start)
		return nil, nil
	})
	for r, err := range errs {
		t.Logf("rank %d after %v: %v", r, took[r], err)
		if err == nil || !strings.Contains(err.Error(), "step 10") || !strings.Contains(err.Error(), "step 5") {
			t.Errorf("rank %d: %v, want an error naming steps 10 and 5", r, err)
		}
		if took[r] > 10*time.Second {
			t.Errorf("rank %d took %v to refuse the job, want under 10s", r, took[r])
		}
	}
}

// TestElasticRecoveryResumesFromCheckpoint is the end-to-end tentpole
// scenario in-process: a 4-rank data-parallel job loses one rank mid-training
// (sockets slam shut, no goodbye), the survivors drain back to the
// rendezvous, the coordinator reforms a smaller world — whose ranks re-derive
// the owner tables and shard partition for their new size — and training
// resumes from the newest committed owner-major checkpoint instead of step 0.
// (The bit-identity of a 4→3 restore is pinned deterministically by
// TestShardedCheckpointRestoresAcrossWorlds; this test proves the same
// machinery under real failure-driven re-rendezvous.)
func TestElasticRecoveryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Stages: 1, DataParallel: 4, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 80, LR: 0.1, Momentum: 0.9, Schedule: "1f1b", Seed: 7,
		StepSleepMs: 20, CkptDir: dir, CkptEvery: 5,
	}
	opts := dist.SessionOptions{
		RendezvousTimeout: 30 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  1 * time.Second,
		JoinGrace:         1 * time.Second,
		Transport:         dist.Options{RecvTimeout: 60 * time.Second},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	statePath := ckpt.DefaultStatePath(dir)

	var wg sync.WaitGroup
	var rep *Report
	var coordErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, coordErr = RunElasticCoordinator(spec, ElasticOptions{
			CtrlAddr:    addr,
			MinReplicas: 2,
			MaxAttempts: 3,
			Session:     opts,
			StatePath:   statePath,
		}, 0)
	}()

	// Two elastic survivors: on job failure they back off and rejoin.
	workerErrs := make([]error, 2)
	for w := range workerErrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = RunElasticWorker(addr, WorkerOptions{
				Session:         opts,
				Backoff:         100 * time.Millisecond,
				MaxJoinFailures: 20,
			})
		}(w)
	}

	// The victim joins like any worker but will be killed mid-job. Its
	// goroutine is deliberately not waited on: like a SIGKILLed process, it
	// may stay blocked until its own recv timeout — the survivors are the
	// subject here.
	var mu sync.Mutex
	var victim *dist.Session
	go func() {
		var sess *dist.Session
		var err error
		for i := 0; i < 300; i++ {
			sess, err = dist.Join(addr, opts)
			if err == nil || !strings.Contains(err.Error(), "connect") {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return // main loop reports "victim never joined"
		}
		mu.Lock()
		victim = sess
		mu.Unlock()
		_ = RunJob(sess) // errors out once aborted — that is the point
	}()

	// Wait for the victim to be seated (Join returns only once the world has
	// formed, so training is underway), let a few checkpoints commit, then
	// kill it abruptly.
	deadline := time.Now().Add(25 * time.Second)
	for {
		mu.Lock()
		v := victim
		mu.Unlock()
		if v != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never joined the first world")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(1 * time.Second) // ≥5 steps at 20ms/step: step-5 checkpoint committed
	mu.Lock()
	victim.Abort() // SIGKILL-faithful: both planes close with no goodbye
	mu.Unlock()

	wg.Wait()
	if coordErr != nil {
		t.Fatalf("elastic coordinator: %v", coordErr)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("elastic worker %d: %v", w, werr)
		}
	}
	if rep.World >= 4 || rep.World < 2 {
		t.Fatalf("final attempt ran world %d, want a shrunken world in [2,3]", rep.World)
	}
	if rep.StartStep < 5 {
		t.Fatalf("final attempt started at step %d, want resume from a committed checkpoint (>= 5)", rep.StartStep)
	}
	t.Logf("recovered: world %d resumed from step %d", rep.World, rep.StartStep)

	// The persisted cluster state reflects the post-recovery generation.
	st, err := ckpt.LoadState(statePath)
	if err != nil {
		t.Fatalf("cluster state: %v", err)
	}
	if st.Attempt != 2 || st.World != rep.World {
		t.Fatalf("cluster state %+v, want attempt 2 / world %d", st, rep.World)
	}
}

// TestPoisonedTransportFailsStepFast pins the runtime fast-fail: once the
// data plane is poisoned, the next step must error out immediately rather
// than discovering the failure send-by-send under a long recv timeout.
func TestPoisonedTransportFailsStepFast(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 1, LR: 0.5, Schedule: "1f1b", Seed: 1,
	}
	mesh, err := dist.NewLocalMesh(spec.World(), dist.Options{RecvTimeout: 120 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	ts, err := Compile(spec, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	params, batch := InitModel(spec)
	losses := make([]*jaxpp.Tensor, ts.NumReplicas()*ts.NumMicrobatches())
	grads := make([]*jaxpp.Tensor, len(ts.Program().Grads))
	if err := ts.StepInto(params, batch, losses, grads); err != nil {
		t.Fatalf("healthy step: %v", err)
	}
	for _, l := range losses {
		tensor.Recycle(l)
	}
	for _, g := range grads {
		tensor.Recycle(g)
	}

	mesh.Poison(errors.New("injected peer death"))
	start := time.Now()
	err = ts.StepInto(params, batch, losses, grads)
	if err == nil || !strings.Contains(err.Error(), "transport poisoned") {
		t.Fatalf("step on poisoned transport: %v, want a transport-poisoned error", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("poisoned step took %v to fail; fast-fail should beat the 120s recv timeout", since)
	}
}

// TestLocalResumeAcrossHoistedTransposes is the resume pin at a shape whose
// step transposes weights once, in a prologue: 6 microbatches of 4 rows (24
// rows a step) on 3 stages, of which the two that owe a dx hoist. The
// prologue reads the weights of the step it runs in, so a restored run
// replays the tail bit for bit, and the uninterrupted run's losses and final
// parameters hash to the bits the commit before the hoist trained to.
func TestLocalResumeAcrossHoistedTransposes(t *testing.T) {
	base := JobSpec{
		Stages: 3, NumMB: 6, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", Seed: 1,
	}
	ts, err := Compile(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	prologues := 0
	for _, seg := range ts.Program().Split.Segments {
		if seg.Kind == stage.Prologue {
			prologues++
		}
	}
	ts.Close()
	if prologues != base.Stages-1 {
		t.Fatalf("%d stages hoist a transpose, want %d", prologues, base.Stages-1)
	}

	ref, err := RunLocal(base)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, l := range ref.MBLosses {
		for _, v := range l {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	for _, p := range ref.FinalParams {
		for _, v := range p.Data() {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got, want := h.Sum64(), uint64(0x6030850467ed64fb); got != want {
		t.Errorf("losses and final parameters hash to %#x, want %#x", got, want)
	}

	ckptSpec := base
	ckptSpec.CkptDir = t.TempDir()
	ckptSpec.CkptEvery = 5
	leg1 := ckptSpec
	leg1.Steps = 7
	if _, err := RunLocal(leg1); err != nil {
		t.Fatal(err)
	}
	rep, err := RunLocal(ckptSpec)
	if err != nil {
		t.Fatal(err)
	}
	requireResumedSuffix(t, rep, ref, 5)
}
