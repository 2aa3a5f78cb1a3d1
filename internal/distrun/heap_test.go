package distrun

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dist"
	"repro/internal/transport"
)

// TestStepHeapBounded holds a steady-state step of the benchmark's
// dp2x2-dense workload to the scratch pool: a 40-step job allocates less than
// 64 KiB of heap per step more than a 10-step job — losses and dispatch
// bookkeeping, no tensor storage — through the in-process transport and
// through a LocalMesh of real sockets. One 2 MiB gradient or activation that
// leaves the pool every microbatch instead of coming back (a store that drops
// what liveness deletes, a transport whose copy is not pooled) costs
// megabytes per step. Collections are paused, so none empties the pool
// mid-job and the count is the step's own. Each length runs five times and
// keeps its smallest count: with the scheduling of the ranks' goroutines, a
// cold job's pools take zero to two more buffers of about 1 MiB from run to
// run, at either length, and two of them over the 30 steps between the
// lengths are above the bound. The smallest count is the run with the
// fewest.
func TestStepHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under the race detector")
	}
	const maxPerStep = 64 << 10
	spec := JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.01}
	for _, tc := range []struct {
		name string
		mesh bool
	}{{"RunLocal", false}, {"LocalMesh", true}} {
		t.Run(tc.name, func(t *testing.T) {
			heap := func(steps int) int64 {
				var tr transport.Transport
				if tc.mesh {
					mesh, err := dist.NewLocalMesh(spec.World(), dist.Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer mesh.Close()
					tr = mesh
				}
				job := spec
				job.Steps = steps
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				goruntime.GC() // twice: the pool and its victim cache, so both jobs start cold
				goruntime.GC()
				var before, after goruntime.MemStats
				goruntime.ReadMemStats(&before)
				if _, err := RunLocalOn(job, tr); err != nil {
					t.Fatal(err)
				}
				goruntime.ReadMemStats(&after)
				return int64(after.TotalAlloc - before.TotalAlloc)
			}
			least := func(steps int) int64 {
				return min(heap(steps), heap(steps), heap(steps), heap(steps), heap(steps))
			}
			short, long := least(10), least(40)
			perStep := (long - short) / 30
			t.Logf("10 steps %d B, 40 steps %d B: %d B a step", short, long, perStep)
			if perStep >= maxPerStep {
				t.Errorf("a steady-state step allocates %d bytes of heap, want < %d", perStep, maxPerStep)
			}
		})
	}
}
