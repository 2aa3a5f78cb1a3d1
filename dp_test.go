package jaxpp

import (
	"testing"

	"repro/internal/tensor"
)

// TestDPxPPGradientsMatchSinglePipeline is the headline DP×PP equivalence:
// R pipeline replicas each accumulating M microbatches, synchronized by the
// executable collective engine, must produce exactly the gradients of one
// pipeline accumulating R×M microbatches over the same global batch.
func TestDPxPPGradientsMatchSinglePipeline(t *testing.T) {
	const stages, mbRows, numMB, width, dp = 2, 4, 3, 8, 2

	dpMesh := NewRemoteMesh(dp * stages)
	spec := mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB))
	spec.DataParallel = dp
	dpStep, err := dpMesh.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dpStep.NumReplicas() != dp {
		t.Fatalf("NumReplicas = %d, want %d", dpStep.NumReplicas(), dp)
	}

	refMesh := NewRemoteMesh(stages)
	refStep, err := refMesh.Compile(mlpSpec(stages, mbRows, width, OneFOneB(stages, dp*numMB)))
	if err != nil {
		t.Fatal(err)
	}

	// Same global batch for both: dp×numMB microbatches of mbRows rows.
	params, x, y := mlpData(stages, mbRows, dp*numMB, width, 7)

	dpLosses, dpGrads, err := dpStep.Step(params, []*Tensor{x, y})
	if err != nil {
		t.Fatal(err)
	}
	refLosses, refGrads, err := refStep.Step(params, []*Tensor{x, y})
	if err != nil {
		t.Fatal(err)
	}

	if len(dpLosses) != dp*numMB {
		t.Fatalf("%d losses, want %d (replica-major)", len(dpLosses), dp*numMB)
	}
	// Replica r's microbatch m is global microbatch r*numMB+m — identical
	// slicing to the reference run, so losses must agree pairwise.
	for i := range dpLosses {
		if !tensor.AllClose(dpLosses[i], refLosses[i], 1e-10, 1e-12) {
			t.Fatalf("loss %d: dp %v vs ref %v", i, dpLosses[i], refLosses[i])
		}
	}
	for i := range refGrads {
		if !tensor.AllClose(dpGrads[i], refGrads[i], 1e-10, 1e-12) {
			t.Fatalf("grad %d diverged: max|Δ| = %g", i, tensor.MaxAbsDiff(dpGrads[i], refGrads[i]))
		}
	}
	if dpStep.DPSyncTime() <= 0 {
		t.Fatal("DPSyncTime must be positive after a DP step")
	}
}

// TestDPxPPTraining trains a 2-stage × 2-replica model for several steps and
// requires the loss to fall — end-to-end DP×PP on the real actor runtime.
func TestDPxPPTraining(t *testing.T) {
	const stages, mbRows, numMB, width, dp, steps = 2, 4, 2, 8, 2, 15

	mesh := NewRemoteMesh(dp * stages)
	spec := mlpSpec(stages, mbRows, width, OneFOneB(stages, numMB))
	spec.DataParallel = dp
	step, err := mesh.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(13)
	params := make([]*Tensor, stages)
	for i := range params {
		params[i] = rng.Xavier(width, width)
	}
	x := rng.Normal(1, dp*numMB*mbRows, width)
	y := rng.OneHotBatch(dp*numMB*mbRows, width)

	var first, last float64
	for s := 0; s < steps; s++ {
		losses, grads, err := step.Step(params, []*Tensor{x, y})
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, l := range losses {
			mean += l.Data()[0]
		}
		mean /= float64(len(losses))
		if s == 0 {
			first = mean
		}
		last = mean
		// Grads are sums over dp×numMB microbatch-mean losses; a fixed small
		// LR is enough for this smoke test.
		params = sgdStep(params, grads, 0.05)
	}
	if !(last < first*0.9) {
		t.Fatalf("DP×PP training did not converge: %.4f -> %.4f", first, last)
	}
}

// TestDPClusterSizeValidation checks the mesh-size contract.
func TestDPClusterSizeValidation(t *testing.T) {
	mesh := NewRemoteMesh(3) // not 2×2
	spec := mlpSpec(2, 4, 8, OneFOneB(2, 2))
	spec.DataParallel = 2
	if _, err := mesh.Compile(spec); err == nil {
		t.Fatal("compile must reject a cluster smaller than DP × PP")
	}
}
