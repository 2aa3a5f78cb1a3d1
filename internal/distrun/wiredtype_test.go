package distrun

import (
	"math"
	"strings"
	"testing"
)

// TestInt8QErrorFeedbackBoundedDivergence trains 200 steps with int8q
// gradient compression and error feedback over real TCP ranks (two replicas
// of two stages: a stage with one replica sends no gradient and would not
// quantize anything) and pins the loss divergence against the f64 in-process
// reference: quantization noise must stay bounded (the residuals re-inject
// what each lossy send dropped) and must not stop the model from converging.
// Only the epilogue's reduce half quantizes; its parameter gather must stay
// lossless. This is the acceptance test for the lossy wire plane — without
// error feedback the quantization bias accumulates and the divergence grows
// without bound.
func TestInt8QErrorFeedbackBoundedDivergence(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16, DataParallel: 2,
		Steps: 200, LR: 0.1, Schedule: "1f1b", Seed: 1,
	}
	ref, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}

	spec.WireDType = "int8q"
	got := launchWorld(t, spec)

	if len(got.StepLosses) != len(ref.StepLosses) {
		t.Fatalf("steps: %d vs %d", len(got.StepLosses), len(ref.StepLosses))
	}
	// Divergence metric: per-step loss error relative to the reference loss,
	// floored so near-zero reference losses do not inflate the ratio.
	maxRel := 0.0
	for s := range ref.StepLosses {
		rel := math.Abs(got.StepLosses[s]-ref.StepLosses[s]) / math.Max(math.Abs(ref.StepLosses[s]), 1e-3)
		if rel > maxRel {
			maxRel = rel
		}
	}
	t.Logf("max relative loss divergence over %d steps: %.4g", spec.Steps, maxRel)
	// Pinned bound: observed ~1e-2 on this config; 0.05 leaves margin for
	// platform FP scheduling differences without masking an EF regression
	// (dropping the residual re-injection sends this over 1 within tens of
	// steps).
	const tol = 0.05
	if maxRel > tol {
		t.Fatalf("loss divergence %.4g exceeds pinned bound %v", maxRel, tol)
	}
	// The quantized run must still train, not merely track the reference:
	// it has to make at least nine tenths of the reference's progress.
	drop := got.StepLosses[0] - got.StepLosses[len(got.StepLosses)-1]
	refDrop := ref.StepLosses[0] - ref.StepLosses[len(ref.StepLosses)-1]
	if !(refDrop > 1 && drop >= 0.9*refDrop) {
		t.Fatalf("int8q run failed to converge: loss fell by %v, the reference's by %v", drop, refDrop)
	}
}

// TestInt8QTracksReferenceAtWidth64 holds int8q to the error it has when the
// feedback compensates exactly what a frame drops: with two replicas every
// gradient frame is a hop-0 frame, so the only noise left is the one-step
// delay of the residual, and 60 steps of a 64-wide model stay within 1e-4 of
// the f64 reference's losses (2.2e-5 measured). The transform this replaced —
// the whole tensor on one grid, the shipped half re-quantized by its frame
// with nothing fed back — measures 1.6e-4 on the same job.
func TestInt8QTracksReferenceAtWidth64(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 64, DataParallel: 2,
		Steps: 60, LR: 0.1, Schedule: "1f1b", Seed: 1,
	}
	ref, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.WireDType = "int8q"
	got := launchWorld(t, spec)
	maxRel := 0.0
	for s := range ref.StepLosses {
		maxRel = max(maxRel, math.Abs(got.StepLosses[s]-ref.StepLosses[s])/math.Abs(ref.StepLosses[s]))
	}
	t.Logf("max relative loss error over %d steps: %.3g", spec.Steps, maxRel)
	if !(maxRel <= 1e-4) {
		t.Fatalf("int8q losses stray %.3g from the f64 reference, want <= 1e-4", maxRel)
	}
}

// TestF32WireStaysConvergentAndClose runs the same job with f32 gradient
// frames: no error feedback is needed at f32 precision, and the loss
// trajectory must track the f64 reference to float32-roundoff tightness —
// far tighter than the int8q band.
func TestF32WireStaysConvergentAndClose(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16, DataParallel: 2,
		Steps: 50, LR: 0.1, Schedule: "1f1b", Seed: 1,
	}
	ref, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.WireDType = "f32"
	got := launchWorld(t, spec)
	for s := range ref.StepLosses {
		rel := math.Abs(got.StepLosses[s]-ref.StepLosses[s]) / math.Max(math.Abs(ref.StepLosses[s]), 1e-6)
		if rel > 1e-3 {
			t.Fatalf("step %d: f32 loss %v strays %v from reference %v", s, got.StepLosses[s], rel, ref.StepLosses[s])
		}
	}
}

// TestShapedRunStaysBitIdentical runs the DP×PP job over shaped links
// (latency, jitter, and a bandwidth cap) and requires losses and final
// parameters bit-identical to the in-process reference: shaping delays
// frames but must never alter payload bits or delivery order.
func TestShapedRunStaysBitIdentical(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 6, LR: 0.5, Schedule: "1f1b", DataParallel: 2, Seed: 3,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shape = &ShapeSpec{LatencyUs: 1000, JitterUs: 200, BandwidthGBs: 2, Seed: 7}
	got := launchWorld(t, spec)
	requireBitIdentical(t, got, local)
}

// TestJobSpecRejectsBadWireDType checks the rendezvous payload validation: a
// typo'd wire dtype fails at decode on every rank, not at step time.
func TestJobSpecRejectsBadWireDType(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 2, Width: 8,
		Steps: 1, LR: 0.1, Schedule: "1f1b", Seed: 1, WireDType: "q4",
	}
	if _, err := UnmarshalJobSpec(spec.Marshal()); err == nil || !strings.Contains(err.Error(), "wire dtype") {
		t.Fatalf("bad wire_dtype accepted: %v", err)
	}
}
