package model

import (
	"math"
	"testing"
)

func TestGPT3ParameterCount(t *testing.T) {
	n := GPT3_175B().Params()
	// ~174-176B parameters.
	if n < 170e9 || n > 180e9 {
		t.Fatalf("GPT-3 params = %d, want ≈175B", n)
	}
}

func TestLlama2ParameterCount(t *testing.T) {
	n := Llama2_70B().Params()
	if n < 66e9 || n > 72e9 {
		t.Fatalf("Llama2 params = %d, want ≈70B", n)
	}
}

func TestStepFLOPsMatchesPaperTable(t *testing.T) {
	// Table 1 is internally consistent: TFLOPS × GPUs × step = model FLOPs.
	// JaxPP GPT-3 row: 462 TF × 64 GPUs × 9.53 s ⇒ 2.82e17 FLOPs at GBS 128.
	got := GPT3_175B().StepFLOPs(128)
	want := 462e12 * 64 * 9.53
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("GPT-3 StepFLOPs(128) = %.3e, paper-implied %.3e", got, want)
	}
	// Llama2 row: 432 TF × 64 × 8.42 s at GBS 128.
	gotL := Llama2_70B().StepFLOPs(128)
	wantL := 432e12 * 64 * 8.42
	if math.Abs(gotL-wantL)/wantL > 0.05 {
		t.Fatalf("Llama2 StepFLOPs(128) = %.3e, paper-implied %.3e", gotL, wantL)
	}
}

func TestStepFLOPsLinearInBatch(t *testing.T) {
	c := GPT3_175B()
	if c.StepFLOPs(256) != 2*c.StepFLOPs(128) {
		t.Fatal("StepFLOPs not linear in batch")
	}
}

func TestSixNDApproximation(t *testing.T) {
	// fwd+bwd FLOPs per token ≈ 6N for large dense models (within ~15%,
	// attention and logits add the rest).
	c := GPT3_175B()
	perToken := 3 * c.FwdFLOPsPerToken()
	sixND := 6 * float64(c.Params())
	if ratio := perToken / sixND; ratio < 1.0 || ratio > 1.2 {
		t.Fatalf("fwd+bwd/token / 6N = %v, want in [1.0, 1.2]", ratio)
	}
}

func TestActivationOrdering(t *testing.T) {
	c := GPT3_175B()
	if !(c.ActivationBytesPerLayerRemat(4) < c.ActivationBytesPerLayer(4)) {
		t.Fatal("remat footprint must be below fused footprint")
	}
	if !(c.ActivationBytesPerLayer(4) < c.ActivationBytesPerLayerNaive(4)) {
		t.Fatal("fused footprint must be below naive footprint")
	}
}

func TestActivationScalesWithMicrobatch(t *testing.T) {
	c := GPT3_175B()
	if c.ActivationBytesPerLayer(8) != 2*c.ActivationBytesPerLayer(4) {
		t.Fatal("activation bytes not linear in microbatch")
	}
}

func TestKVDimGQA(t *testing.T) {
	l := Llama2_70B()
	if l.KVDim() != 8*128 {
		t.Fatalf("llama KV dim = %d, want 1024", l.KVDim())
	}
	g := GPT3_175B()
	if g.KVDim() != g.Hidden {
		t.Fatalf("MHA KV dim = %d, want hidden %d", g.KVDim(), g.Hidden)
	}
}

func TestCommBytesFormulas(t *testing.T) {
	c := GPT3_175B()
	want := float64(2048 * 4 * 12288 * 2)
	if c.TPCollectiveBytesPerLayer(4) != want {
		t.Fatalf("TP collective bytes = %v want %v", c.TPCollectiveBytesPerLayer(4), want)
	}
	if c.P2PBytesPerBoundary(4) != want {
		t.Fatalf("P2P bytes = %v want %v", c.P2PBytesPerBoundary(4), want)
	}
}

// ActivationBytesPerLayerNaive returns the activation memory (bytes, BF16
// training) one microbatch pins in one transformer layer with *unfused*
// attention — Korthikanti et al.'s s·b·h·(34 + 5·a·s/h), including the s²
// attention matrices.
func (c TransformerConfig) ActivationBytesPerLayerNaive(microbatch int) float64 {
	s := float64(c.Seq)
	b := float64(microbatch)
	h := float64(c.Hidden)
	a := float64(c.Heads)
	return s * b * h * (34 + 5*a*s/h)
}
