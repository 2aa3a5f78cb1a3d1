package distrun

import (
	"math"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// TestHostedFilterMatchesUnfiltered2Ranks is the hosted-actor-filter
// equivalence bar: a 2-rank run where each process materializes only its own
// actor must produce losses and final parameters bit-identical to the same
// run with every rank loading the full world-size cluster — and both must
// match the in-process reference.
func TestHostedFilterMatchesUnfiltered2Ranks(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 5, LR: 0.5, Schedule: "1f1b", Seed: 11,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	filtered := launchWorld(t, spec) // distrun.Run hosts one actor per rank
	unfiltered, _ := launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
		return runOver(sess, sess.Transport, spec, nil)
	})
	requireBitIdentical(t, filtered, local)
	requireBitIdentical(t, unfiltered, local)
	requireBitIdentical(t, filtered, unfiltered)
}

// TestNegZeroFillIsExactAdditiveIdentity pins the IEEE identity a rank with
// nothing to contribute to a sum can stand on: an all-reduce where one rank
// contributes the payload and every other rank contributes negative zeros
// must reproduce the owner's bits exactly — including for payload elements
// that are themselves ±0.0, denormal, or negative (a +0.0 fill would flip
// -0.0 payloads to +0.0 and break bit-for-bit parity with the in-process
// reference). The step epilogue no longer depends on it — every rank of a
// replica group contributes a real gradient — so this is a property of the
// ring's OpSum, kept for whoever next lets a rank sit a sum out.
func TestNegZeroFillIsExactAdditiveIdentity(t *testing.T) {
	payload := []float64{
		math.Copysign(0, -1), 0.0, 1.5, -1.5,
		5e-324, -5e-324, // denormals
		math.MaxFloat64, -math.MaxFloat64, 1e-300, -3.75,
	}
	const n = 4
	negZero := math.Copysign(0, -1)
	tr := runtime.NewChanTransport()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	group, err := collective.NewGroup(tr, ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r, owner int) {
			defer wg.Done()
			comm, err := group.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			buf := tensor.GetScratch(len(payload))
			if r == owner {
				buf.CopyFrom(payload)
			} else {
				for i := range buf.Data() {
					buf.Data()[i] = negZero
				}
			}
			errs[r] = comm.AllReduceBucketsInPlace([]*tensor.Tensor{buf}, collective.OpSum, 0)
			outs[r] = append([]float64(nil), buf.Data()...)
		}(r, 2)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, out := range outs {
		for i, got := range out {
			if math.Float64bits(got) != math.Float64bits(payload[i]) {
				t.Fatalf("rank %d elem %d: got %v (bits %x), want %v (bits %x)",
					r, i, got, math.Float64bits(got), payload[i], math.Float64bits(payload[i]))
			}
		}
	}
}
