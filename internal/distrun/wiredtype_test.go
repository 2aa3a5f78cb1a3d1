package distrun

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
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

// TestWireDTypeCanaryCompressesOneRank runs a two-replica f64 job in which
// rank 1 alone overrides the gradient encoding (jaxpp-worker -wire-dtype,
// JobOptions.WireDType): its gradient frames shrink and its peer's do not,
// frames being self-describing, and the job still tracks the reference — the
// canary compensates what it drops.
func TestWireDTypeCanaryCompressesOneRank(t *testing.T) {
	spec := JobSpec{
		Stages: 1, NumMB: 4, MBRows: 4, Width: 32, DataParallel: 2,
		Steps: 20, LR: 0.1, Schedule: "1f1b", Seed: 2,
	}
	ref, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, sent := launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
		if sess.Rank != 1 {
			return Run(sess, spec)
		}
		return nil, RunJobWith(sess, JobOptions{WireDType: "int8q"})
	})
	grad := int64(spec.Width * spec.Width / 2 * 8) // the chunk a rank ships per step, as f64
	if saved := sent[0].bytes - sent[1].bytes; saved < int64(spec.Steps)*grad*3/4 {
		t.Fatalf("rank 0 sent %d bytes, the int8q canary %d: saved %d, want about 7/8 of %d steps x %d", sent[0].bytes, sent[1].bytes, saved, spec.Steps, grad)
	}
	for s := range ref.StepLosses {
		if rel := math.Abs(rep.StepLosses[s]-ref.StepLosses[s]) / math.Abs(ref.StepLosses[s]); !(rel <= 1e-3) {
			t.Fatalf("step %d: loss %v strays %.3g from the reference %v", s, rep.StepLosses[s], rel, ref.StepLosses[s])
		}
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

// TestShapedRunStaysBitIdentical runs the DP×PP job through ShapedTransport
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

// TestCollectiveSpecWireDTypes pins the collective job's dtype policy: f32 is
// a real verification (integer payloads are f32-exact), int8q is rejected
// up front because a lossy round trip cannot pass a bit-exact self-check.
func TestCollectiveSpecWireDTypes(t *testing.T) {
	base := CollectiveSpec{World: 4, Elems: 1 << 10, Iters: 2, Seed: 5, BucketBytes: 4096}

	bad := base
	bad.WireDType = "int8q"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "int8q") {
		t.Fatalf("int8q collective spec accepted: %v", err)
	}

	unknown := base
	unknown.WireDType = "q4"
	if err := unknown.Validate(); err == nil {
		t.Fatal("unknown wire dtype accepted")
	}

	f32 := base
	f32.WireDType = "f32"
	if err := RunCollectiveLocal(f32, dist.Options{}); err != nil {
		t.Fatalf("f32 collective verification failed: %v", err)
	}
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
