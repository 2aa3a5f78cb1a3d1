package distrun

import (
	"testing"

	"repro/internal/obs"
)

// TestMatMulOperandZeroFraction measures, rather than assumes, how sparse the
// left operands of the matmuls in a training step are. The matmul kernel
// spends a compaction pass per row to skip zeros; that pays only if ReLU
// outputs and ReLU-masked cotangents really are about half zeros. The
// benchmark's pp4-compute shape is run in process for two steps and the
// tensor package's operand-traffic counters are read back.
func TestMatMulOperandZeroFraction(t *testing.T) {
	elems, nonZeros := obs.Counter("matmul/a_elems"), obs.Counter("matmul/a_nonzeros")
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	e0, n0 := obs.CounterNow(elems), obs.CounterNow(nonZeros)
	spec := JobSpec{Stages: 4, NumMB: 8, MBRows: 128, Width: 256, Schedule: "1f1b", LR: 0.05, Steps: 2}
	if _, err := RunLocal(spec); err != nil {
		t.Fatal(err)
	}
	e, n := obs.CounterNow(elems)-e0, obs.CounterNow(nonZeros)-n0
	if e == 0 {
		t.Fatal("no matmul operand traffic was counted")
	}
	zero := 1 - float64(n)/float64(e)
	t.Logf("pp4-compute, 2 steps: %d left-operand elements, %d non-zero: %.1f%% zeros", e, n, 100*zero)
	// A band, not a golden value: the claim is "a large share", and the kernel
	// stays correct whatever the share is.
	if zero < 0.2 || zero > 0.8 {
		t.Errorf("zero fraction of matmul left operands = %.3f, outside [0.2, 0.8]: the zero-skip's cost/benefit needs re-measuring", zero)
	}
}
