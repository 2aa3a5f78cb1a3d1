package distrun

import (
	"math"
	"strings"
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
	filtered := launchWorld(t, spec) // distrun.Run hosts one actor per rank by default
	spec.NoHostedFilter = true
	unfiltered := launchWorld(t, spec)
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

// TestCollectiveJobOverLocalMesh runs the self-verifying wire-collective job
// across 8 TCP endpoints inside one process — the same world size and op
// sequence as the CI smoke, minus the OS-process fan-out.
func TestCollectiveJobOverLocalMesh(t *testing.T) {
	spec := CollectiveSpec{
		Kind: KindCollective, World: 8, Elems: 4096, Iters: 2,
		Seed: 7, BucketBytes: 1 << 13, // several fusion buckets per iteration
	}
	if err := RunCollectiveLocal(spec, dist.Options{CRC: true}); err != nil {
		t.Fatal(err)
	}
}

// TestJobPayloadKindDispatch pins the payload-kind discrimination both
// decoders enforce: a collective payload must not decode as a training job
// and vice versa, so a mixed-version world fails loudly at rendezvous
// instead of running the wrong job.
func TestJobPayloadKindDispatch(t *testing.T) {
	cs := CollectiveSpec{World: 4, Elems: 64, Iters: 1}
	if _, err := UnmarshalJobSpec(cs.Marshal()); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("training decoder accepted a collective payload: %v", err)
	}
	js := JobSpec{Stages: 2, NumMB: 2, MBRows: 2, Width: 8, Steps: 1, LR: 0.1, Seed: 1}
	if _, err := UnmarshalCollectiveSpec(js.Marshal()); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("collective decoder accepted a training payload: %v", err)
	}
	if _, err := UnmarshalCollectiveSpec(CollectiveSpec{Kind: KindCollective}.Marshal()); err == nil {
		t.Fatal("collective decoder accepted an empty spec")
	}
}
