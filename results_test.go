package jaxpp

import (
	"os"
	goruntime "runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport/transporttest"
)

// TestMain runs the package — pipelined and DP×PP gradients and training
// trajectories against their single-device references — with recycled
// storage NaN-filled, so a tensor read after its recycle turns those
// comparisons red.
func TestMain(m *testing.M) {
	transporttest.PoisonRecycled()
	os.Exit(m.Run())
}

// cloneAll deep-copies a tensor slice.
func cloneAll(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func sameAll(t *testing.T, what string, got, want []*Tensor) {
	t.Helper()
	for i := range want {
		if !tensor.AllClose(got[i], want[i], 0, 0) {
			t.Fatalf("%s[%d] changed: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// TestStepResultsSurviveNextStep pins the ownership-transfer contract on
// fetched results: losses and gradients returned by Step must not alias store
// buffers that the next step deletes, re-accumulates in place, or all-reduces
// — using last step's results after stepping again has to be safe.
func TestStepResultsSurviveNextStep(t *testing.T) {
	const stages, mbRows, numMB, width = 3, 4, 6, 8
	mesh := NewRemoteMesh(stages)
	step, err := mesh.Compile(mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB)))
	if err != nil {
		t.Fatal(err)
	}
	params, x, y := mlpData(stages, mbRows, numMB, width, 1)
	losses1, grads1, err := step.Step(params, []*Tensor{x, y})
	if err != nil {
		t.Fatal(err)
	}
	savedLosses, savedGrads := cloneAll(losses1), cloneAll(grads1)

	// A second step with different data would overwrite any aliased storage.
	_, x2, y2 := mlpData(stages, mbRows, numMB, width, 99)
	if _, _, err := step.Step(params, []*Tensor{x2, y2}); err != nil {
		t.Fatal(err)
	}
	sameAll(t, "losses", losses1, savedLosses)
	sameAll(t, "grads", grads1, savedGrads)
}

// TestStepResultsSurviveNextStepDP repeats the pin with data parallelism on:
// the DP gradient all-reduce epilogue mutates grad accumulators in place, the
// exact recycling the fetch must be immune to.
func TestStepResultsSurviveNextStepDP(t *testing.T) {
	const stages, mbRows, numMB, width, dpN = 2, 4, 4, 8, 2
	mesh := NewRemoteMesh(dpN * stages)
	spec := mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB))
	spec.DataParallel = dpN
	step, err := mesh.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	params, x, y := mlpData(stages, mbRows, dpN*numMB, width, 2)
	losses1, grads1, err := step.Step(params, []*Tensor{x, y})
	if err != nil {
		t.Fatal(err)
	}
	savedLosses, savedGrads := cloneAll(losses1), cloneAll(grads1)
	_, x2, y2 := mlpData(stages, mbRows, dpN*numMB, width, 77)
	if _, _, err := step.Step(params, []*Tensor{x2, y2}); err != nil {
		t.Fatal(err)
	}
	sameAll(t, "losses", losses1, savedLosses)
	sameAll(t, "grads", grads1, savedGrads)
}

// TestStepNeverMutatesCallerBatch proves the zero-copy microbatch row views
// are read-only in practice: two full training steps (forward, backward,
// gradient accumulation, deletes) leave the caller's batch and parameter
// tensors bit-identical. Combined with the tensor-level borrowed-view panics
// this pins the in-place-mutation safety of the view path.
func TestStepNeverMutatesCallerBatch(t *testing.T) {
	const stages, mbRows, numMB, width = 3, 4, 6, 8
	mesh := NewRemoteMesh(stages)
	step, err := mesh.Compile(mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB)))
	if err != nil {
		t.Fatal(err)
	}
	params, x, y := mlpData(stages, mbRows, numMB, width, 5)
	savedParams := cloneAll(params)
	savedX, savedY := x.Clone(), y.Clone()
	for i := 0; i < 2; i++ {
		if _, _, err := step.Step(params, []*Tensor{x, y}); err != nil {
			t.Fatal(err)
		}
	}
	sameAll(t, "params", params, savedParams)
	sameAll(t, "batch x", []*Tensor{x}, []*Tensor{savedX})
	sameAll(t, "batch y", []*Tensor{y}, []*Tensor{savedY})
}

// gateStep compiles the 4-stage width-32 MLP both perf gates below measure —
// dpN 0 with 8 microbatches is the pipeline tier, dpN 2 with 4 the DP×PP tier
// — warms mailboxes, scratch pools and store tables, and returns a function
// that runs one steady-state step. Results land in reused StepInto buffers,
// so the driver-side result slices of Step stay out of the counts.
func gateStep(t *testing.T, dpN, numMB int) (step func()) {
	const stages, mbRows, width = 4, 8, 32
	replicas := max(dpN, 1)
	spec := mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB))
	spec.DataParallel = dpN
	ts, err := NewRemoteMesh(replicas * stages).Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ts.Close)
	params, x, y := mlpData(stages, mbRows, replicas*numMB, width, 3)
	batch := []*Tensor{x, y}
	losses := make([]*Tensor, replicas*numMB)
	grads := make([]*Tensor, stages)
	step = func() {
		if err := ts.StepInto(params, batch, losses, grads); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	return step
}

// pauseGC stops collections until the returned function runs: a collection
// inside a measurement would drop the scratch pools and charge the refill to
// the step.
func pauseGC() (resume func()) {
	percent := debug.SetGCPercent(-1)
	goruntime.GC()
	return func() { debug.SetGCPercent(percent) }
}

// TestStepAllocsBounded is the allocation ceiling CI enforces (the test job's
// non-race step): a steady-state step of either tier sits near 100
// allocations (94 pipeline, 105 DP×PP when the ceiling was set): dispatch
// bookkeeping and the results this test takes and drops, while every tensor
// a step sends, receives or deletes comes back to the scratch pool. 200
// leaves headroom for scheduler noise and is far under the ~400 a step cost
// while deleted buffers went to the garbage collector, and the ~1 100 before
// dense stores and zero-copy microbatch views, so none of those regression
// classes can silently return.
func TestStepAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is only meaningful without -race")
	}
	const maxAllocs = 200
	for _, tier := range []struct {
		name       string
		dpN, numMB int
	}{{"pipeline", 0, 8}, {"DPxPP", 2, 4}} {
		step := gateStep(t, tier.dpN, tier.numMB)
		resume := pauseGC()
		allocs := testing.AllocsPerRun(20, step)
		resume()
		t.Logf("%s step: %.0f allocs", tier.name, allocs)
		if allocs > maxAllocs {
			t.Errorf("steady-state %s step allocates %.0f objects, want <= %d", tier.name, allocs, maxAllocs)
		}
	}
}

// TestAccumulatorStorageCyclesThroughPool holds the first accumulation of a
// gradient buffer to the scratch pool: the accumulator a driver takes and
// recycles is storage the next first accumulation finds there, so the cycle
// neither misses the pool nor allocates a tensor's worth of memory (the copy
// used to be a fresh make, cleared and then overwritten, every step).
func TestAccumulatorStorageCyclesThroughPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under the race detector")
	}
	const width = 256
	store := runtime.NewStore()
	store.Put(1, tensor.New(width, width))
	cycle := func() {
		if err := store.Accumulate(0, 1, false); err != nil {
			t.Fatal(err)
		}
		acc, err := store.Take(0)
		if err != nil {
			t.Fatal(err)
		}
		tensor.Recycle(acc)
	}
	resume := pauseGC()
	defer resume()
	cycle() // after the pause's collection, which empties the pool
	obs.Enable()
	defer obs.Disable()
	miss := obs.Counter("pool/miss")
	missesBefore := obs.CounterNow(miss)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	const cycles = 20
	for i := 0; i < cycles; i++ {
		cycle()
	}
	goruntime.ReadMemStats(&after)
	if got := obs.CounterNow(miss) - missesBefore; got != 0 {
		t.Errorf("%d pool misses in %d accumulate/take/recycle cycles, want 0", got, cycles)
	}
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle > width*width*8/4 {
		t.Errorf("a cycle allocates %d bytes: the %d-byte accumulator is not coming from the pool", perCycle, width*width*8)
	}
}

// TestDisabledObsOverheadBounded holds the obs plane's zero-overhead claim:
// with the registry off, instrumentation costs at most 1% of a pipeline step.
// The estimate is deterministic in its large factor — scope hits per step,
// counted from a profiled run — times the measured cost of a disabled
// Track/Stop pair, plus one disabled step sampler's check (distrun's
// stepSampler.record returns at once while obs.Enabled() is false), over the
// registry-off step time. It sits near 0.1%, so the bound fails on a
// regression of the gate (a lock, an allocation, a clock read before the
// enabled check), not on machine jitter.
func TestDisabledObsOverheadBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation dominates a 3 ns gate check")
	}
	const maxPct = 1.0
	step := gateStep(t, 0, 8)

	const steps = 20
	resume := pauseGC()
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		step()
	}
	stepNs := float64(time.Since(t0).Nanoseconds()) / steps
	resume()

	obs.SnapshotAndReset()
	obs.Enable()
	for i := 0; i < steps; i++ {
		step()
	}
	obs.Disable()
	var hits int64
	for _, sc := range obs.SnapshotAndReset().Scopes {
		hits += sc.Count
	}
	hitsPerStep := float64(hits) / steps

	const gateIters = 1 << 20
	scope := obs.Scope("test/disabled_gate")
	t0 = time.Now()
	for i := 0; i < gateIters; i++ {
		obs.Track(scope).Stop()
	}
	trackNs := float64(time.Since(t0).Nanoseconds()) / gateIters
	sampled := 0
	t0 = time.Now()
	for i := 0; i < gateIters; i++ {
		if obs.Enabled() {
			sampled++
		}
	}
	sampleNs := float64(time.Since(t0).Nanoseconds()) / gateIters

	pct := 100 * (hitsPerStep*trackNs + sampleNs) / stepNs
	t.Logf("%.0f scope hits/step x %.2f ns + %.2f ns sampler check over a %.0f ns step = %.3f%%", hitsPerStep, trackNs, sampleNs, stepNs, pct)
	if sampled != 0 {
		t.Fatalf("the sampler's check saw obs on in %d of %d calls", sampled, gateIters)
	}
	if hitsPerStep == 0 {
		t.Fatal("profiled pipeline steps hit no obs scope: the estimate measures nothing")
	}
	if pct > maxPct {
		t.Errorf("disabled obs plane costs %.3f%% of a pipeline step, want <= %.1f%%", pct, maxPct)
	}
}
