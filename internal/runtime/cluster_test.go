package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// mlpProgram compiles the MLP microbatch grad graph onto sched and builds a
// step's inputs for the given replica count.
func mlpProgram(t *testing.T, sched *schedule.Schedule, replicas int) (*taskgraph.Program, []*tensor.Tensor) {
	t.Helper()
	const mbRows, width = 2, 8
	stages := sched.NumActors
	split, err := stage.SplitGraph(buildMLPGrad(t, stages, mbRows, width), stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, sched, taskgraph.Options{BatchInputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(17)
	rows := replicas * sched.NumMB * mbRows
	inputs := []*tensor.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width)}
	for i := 0; i < stages; i++ {
		inputs = append(inputs, rng.Normal(0.5, width, width))
	}
	return prog, inputs
}

// TestFailedActorPoisonsTransport: DP 2 × PP 2, one actor's epilogue fails at
// once while its replica partner's epilogue waits in a Recv from it. The
// failure poisons the transport, so the partner does not sit out RecvTimeout
// (30 s), Step names the actor that failed — whichever side of the woken peer
// its index falls — and the next Step is refused rather than matched against
// whatever the failed one left under its tags.
func TestFailedActorPoisonsTransport(t *testing.T) {
	for _, pair := range [][2]int{{0, 2}, {2, 0}} {
		failing, partner := pair[0], pair[1]
		prog, inputs := mlpProgram(t, schedule.OneFOneB(2, 4), 2)
		cl := NewCluster(4)
		exe, err := cl.Load(prog, LoadOptions{DataParallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		exe.SetStepEpilogue(failing, func(*Store) error { return boom })
		exe.SetStepEpilogue(partner, func(*Store) error {
			_, err := cl.Transport.Recv(partner, failing, 1<<20)
			return err
		})
		start := time.Now()
		_, _, err = exe.Step(inputs)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("actor %d fails: Step took %v; the partner waited out its receive", failing, took)
		}
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("actor %d failed", failing)) {
			t.Fatalf("actor %d fails: Step returned %v, want the cause under that actor's name", failing, err)
		}
		if strings.Contains(err.Error(), fmt.Sprintf("actor %d", partner)) {
			t.Fatalf("actor %d fails: Step blamed the peer the poison woke: %v", failing, err)
		}
		if _, _, err := exe.Step(inputs); err == nil || !strings.Contains(err.Error(), "transport poisoned") {
			t.Fatalf("actor %d fails: a second Step returned %v, want it refused on the poisoned transport", failing, err)
		}
	}
}

// TestClusterParksNoGoroutines: an executable owns no goroutine between
// steps, so there is nothing to Close and a reload leaves nothing behind.
func TestClusterParksNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	prog, inputs := mlpProgram(t, schedule.OneFOneB(4, 8), 1)
	cl := NewCluster(4)
	for load := 0; load < 2; load++ {
		exe, err := cl.Load(prog, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			if _, _, err := exe.Step(inputs); err != nil {
				t.Fatal(err)
			}
		}
		// The last step's dispatch goroutines have called Done and are on
		// their way out; nothing else was started.
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Fatalf("load %d: %d goroutines before Load, %d after 20 steps", load, before, after)
		}
	}
}

// TestStorePeaksAreTheProgramsOwn: every store slot has one owner and every
// deletion happens where the program put it, so an actor's store peaks are a
// property of the program — the same step after step and at any GOMAXPROCS.
func TestStorePeaksAreTheProgramsOwn(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, c := range stdSchedules() {
		prog, inputs := mlpProgram(t, c.sched(4, 8), 1)
		var want []StoreStats
		for _, procs := range []int{1, 4} {
			goruntime.GOMAXPROCS(procs)
			exe, err := NewCluster(4).Load(prog, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 50; step++ {
				if _, _, err := exe.Step(inputs); err != nil {
					t.Fatal(err)
				}
				got := exe.StoreStatsAll()
				if want == nil {
					want = got
				}
				for a := range got {
					if got[a].PeakBytes != want[a].PeakBytes || got[a].PeakBufs != want[a].PeakBufs {
						t.Fatalf("%s, GOMAXPROCS %d, step %d, actor %d: peak %d B in %d buffers, first step's was %d B in %d",
							c.name, procs, step, a, got[a].PeakBytes, got[a].PeakBufs, want[a].PeakBytes, want[a].PeakBufs)
					}
				}
			}
		}
	}
}
