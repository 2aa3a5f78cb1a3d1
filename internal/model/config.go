// Package model provides the workload definitions of the paper's evaluation:
// transformer configurations (GPT-3 175B, Llama2 70B) with analytic
// parameter, FLOP and activation-memory models following the standard
// Megatron-LM accounting, plus small *functional* models built on the IR for
// end-to-end numeric runs.
package model

import "fmt"

// TransformerConfig describes a decoder-only transformer.
type TransformerConfig struct {
	Name    string
	Layers  int
	Hidden  int
	Heads   int
	KVHeads int // grouped-query attention; == Heads for MHA
	FFN     int // feed-forward inner width
	Vocab   int
	Seq     int
	Gated   bool // SwiGLU-style 3-matmul FFN (Llama) vs 2-matmul GELU (GPT)
	TiedEmb bool // input/output embeddings shared
}

// GPT3_175B returns the GPT-3 175B configuration used throughout §5.
func GPT3_175B() TransformerConfig {
	return TransformerConfig{
		Name:   "GPT-3 175B",
		Layers: 96, Hidden: 12288, Heads: 96, KVHeads: 96,
		FFN: 4 * 12288, Vocab: 50257, Seq: 2048,
		Gated: false, TiedEmb: true,
	}
}

// Llama2_70B returns the Llama2 70B configuration (§5.2, sequence 4096).
func Llama2_70B() TransformerConfig {
	return TransformerConfig{
		Name:   "Llama2 70B",
		Layers: 80, Hidden: 8192, Heads: 64, KVHeads: 8,
		FFN: 28672, Vocab: 32000, Seq: 4096,
		Gated: true, TiedEmb: false,
	}
}

func (c TransformerConfig) String() string {
	return fmt.Sprintf("%s(L=%d H=%d S=%d)", c.Name, c.Layers, c.Hidden, c.Seq)
}

// headDim returns the per-head dimension.
func (c TransformerConfig) headDim() int { return c.Hidden / c.Heads }

// KVDim returns the total key/value projection width.
func (c TransformerConfig) KVDim() int { return c.KVHeads * c.headDim() }

// LayerParams returns the parameter count of one transformer layer.
func (c TransformerConfig) LayerParams() int64 {
	h := int64(c.Hidden)
	kv := int64(c.KVDim())
	attn := h*h + 2*h*kv + h*h // Q, K, V, O projections
	var ffn int64
	if c.Gated {
		ffn = 3 * h * int64(c.FFN)
	} else {
		ffn = 2 * h * int64(c.FFN)
	}
	norms := 4 * h // two norms (scale+bias)
	return attn + ffn + norms
}

// EmbeddingParams returns the token-embedding parameter count (one copy).
func (c TransformerConfig) EmbeddingParams() int64 {
	return int64(c.Vocab) * int64(c.Hidden)
}

// Params returns the total parameter count.
func (c TransformerConfig) Params() int64 {
	n := int64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
	if !c.TiedEmb {
		n += c.EmbeddingParams()
	}
	return n
}

// FwdFLOPsPerToken returns the forward FLOPs for a single token: 2 FLOPs per
// multiply-accumulate across all projections, attention scores/context, the
// FFN, and the final logit matmul.
func (c TransformerConfig) FwdFLOPsPerToken() float64 {
	h := float64(c.Hidden)
	kv := float64(c.KVDim())
	s := float64(c.Seq)
	ffn := float64(c.FFN)
	perLayer := 2 * (h*h + 2*h*kv + h*h) // projections
	perLayer += 2 * 2 * s * h            // QK^T and attn·V (full, no causal discount)
	if c.Gated {
		perLayer += 2 * 3 * h * ffn
	} else {
		perLayer += 2 * 2 * h * ffn
	}
	logits := 2 * h * float64(c.Vocab)
	return float64(c.Layers)*perLayer + logits
}

// StepFLOPs returns the model FLOPs of one training step at the given global
// batch size (sequences): forward + backward = 3× forward, the standard
// "model FLOPs" convention the paper's TFLOPS/device numbers follow (no
// rematerialization FLOPs counted).
func (c TransformerConfig) StepFLOPs(globalBatch int) float64 {
	tokens := float64(globalBatch) * float64(c.Seq)
	return 3 * c.FwdFLOPsPerToken() * tokens
}

// ActivationBytesPerLayer returns the activation footprint with fused
// (cuDNN/flash) attention, which all systems in §5 use ("JaxPP uses no
// custom kernels except for the attention APIs from cuDNN"): the s²
// attention matrices are never materialized and cheap pointwise
// intermediates are recomputed or reused in place by XLA, leaving ≈13 bytes
// per token per hidden unit — calibrated so the interleaved 1F1B configs of
// Fig. 6 fit in HBM without rematerialization (as the paper's Fig. 10
// breakdown shows) while GPipe-scheduled runs do not.
func (c TransformerConfig) ActivationBytesPerLayer(microbatch int) float64 {
	return float64(c.Seq) * float64(microbatch) * float64(c.Hidden) * 13
}

// ActivationBytesPerLayerRemat returns the activation footprint with full
// rematerialization: only the layer input (s·b·h·2 bytes) is kept.
func (c TransformerConfig) ActivationBytesPerLayerRemat(microbatch int) float64 {
	return float64(c.Seq) * float64(microbatch) * float64(c.Hidden) * 2
}

// TPCollectiveBytesPerLayer returns the bytes all-reduced per layer per
// microbatch in Megatron tensor parallelism (two all-reduces forward, two
// backward, each of s·b·h BF16 elements).
func (c TransformerConfig) TPCollectiveBytesPerLayer(microbatch int) float64 {
	return float64(c.Seq) * float64(microbatch) * float64(c.Hidden) * 2
}

// P2PBytesPerBoundary returns the bytes crossing one pipeline-stage boundary
// per microbatch (hidden states, BF16).
func (c TransformerConfig) P2PBytesPerBoundary(microbatch int) float64 {
	return float64(c.Seq) * float64(microbatch) * float64(c.Hidden) * 2
}
