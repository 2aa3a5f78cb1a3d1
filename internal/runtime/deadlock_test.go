package runtime

import (
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// stepOutcome runs one step under the given communication ordering and
// synchronous rendezvous sends, reporting whether it completed within the
// timeout — the experimental apparatus for the paper's Fig. 5.
func stepOutcome(t *testing.T, naive bool, timeout time.Duration) (completed bool, grads []*tensor.Tensor) {
	t.Helper()
	const stages, mbRows, numMB, width = 3, 4, 6, 8
	g := buildMLPGrad(t, stages, mbRows, width)
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{
		BatchInputs:       []int{0, 1},
		NaiveCommOrdering: naive,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClusterWithTransport(stages, NewRendezvousTransport())
	exe, err := cl.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	inputs := append([]*tensor.Tensor{
		rng.Normal(1, numMB*mbRows, width),
		rng.OneHotBatch(numMB*mbRows, width),
	}, params...)

	type result struct {
		grads []*tensor.Tensor
		err   error
	}
	done := make(chan result, 1)
	go func() {
		_, gr, err := exe.Step(inputs)
		done <- result{gr, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return true, r.grads
	case <-time.After(timeout):
		return false, nil
	}
}

// TestFig5NaiveOrderingDeadlocks reproduces the §4.2 claim: emitting each
// receive just before its consuming task, combined with blocking sends,
// deadlocks under 1F1B (actors attempt mutual synchronous sends).
func TestFig5NaiveOrderingDeadlocks(t *testing.T) {
	completed, _ := stepOutcome(t, true, 300*time.Millisecond)
	if completed {
		t.Fatal("naive comm ordering with rendezvous sends should deadlock under 1F1B")
	}
	// Note: the deadlocked goroutines leak for the remainder of the test
	// binary; that is inherent to demonstrating a deadlock.
}

// TestFig5TopologicalOrderingCompletes shows JaxPP's ordering (receives
// posted at production time, in global topological order) completes even
// with fully synchronous rendezvous sends.
func TestFig5TopologicalOrderingCompletes(t *testing.T) {
	completed, grads := stepOutcome(t, false, 10*time.Second)
	if !completed {
		t.Fatal("topological ordering must not deadlock")
	}
	if len(grads) != 3 {
		t.Fatalf("grads %d", len(grads))
	}
}

// TestNaiveOrderingWorksWithAsyncSends confirms the other half of the
// design: with JaxPP's asynchronous sends even the naive receive placement
// cannot deadlock (sends never block the actor's program).
func TestNaiveOrderingWorksWithAsyncSends(t *testing.T) {
	const stages, mbRows, numMB, width = 3, 4, 6, 8
	g := buildMLPGrad(t, stages, mbRows, width)
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{
		BatchInputs:       []int{0, 1},
		NaiveCommOrdering: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(stages)
	exe, err := cl.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	params := make([]*tensor.Tensor, stages)
	for i := range params {
		params[i] = rng.Normal(0.5, width, width)
	}
	fullX := rng.Normal(1, numMB*mbRows, width)
	fullY := rng.OneHotBatch(numMB*mbRows, width)
	wantL, wantG := referenceAccumulate(t, g, params, fullX, fullY, numMB)
	inputs := append([]*tensor.Tensor{fullX, fullY}, params...)
	gotL, gotG, err := exe.Step(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantL {
		if !tensor.AllClose(gotL[i], wantL[i], 1e-10, 1e-12) {
			t.Fatalf("loss %d differs", i)
		}
	}
	for i := range wantG {
		if !tensor.AllClose(gotG[i], wantG[i], 1e-10, 1e-12) {
			t.Fatalf("grad %d differs", i)
		}
	}
}
