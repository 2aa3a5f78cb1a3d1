// Package perf is the hardware cost model: an analytic description of the
// NVIDIA EOS-class cluster the paper evaluates on (DGX H100 nodes, NVLink
// intra-node, InfiniBand NDR inter-node), with achievable-efficiency curves,
// collective and point-to-point cost formulas, dispatch overheads, and the
// HBM capacity model that decides rematerialization. The simulator in
// package sim consumes these numbers; nothing here depends on real hardware.
package perf

// DeviceSpec describes one accelerator.
type DeviceSpec struct {
	Name           string
	PeakTFLOPS     float64 // dense BF16 tensor-core peak
	HBMBytes       float64
	NVLinkGBs      float64 // per-GPU NVLink bandwidth (one direction)
	NetGBs         float64 // per-GPU inter-node bandwidth (one direction)
	NVLinkLatency  float64 // seconds per collective hop
	NetLatency     float64 // seconds per message
	DispatchOverhd float64 // seconds per asynchronously dispatched task
}

// H100 returns the DGX H100 device model (EOS, §5).
func H100() DeviceSpec {
	return DeviceSpec{
		Name:           "H100-SXM",
		PeakTFLOPS:     989,
		HBMBytes:       80e9,
		NVLinkGBs:      450,
		NetGBs:         50, // NDR400 per GPU
		NVLinkLatency:  3e-6,
		NetLatency:     8e-6,
		DispatchOverhd: 45e-6,
	}
}

// ClusterSpec describes the machine layout.
type ClusterSpec struct {
	Device      DeviceSpec
	GPUsPerNode int
}

// EOS returns the evaluation cluster: DGX H100 nodes of 8 GPUs.
func EOS() ClusterSpec {
	return ClusterSpec{Device: H100(), GPUsPerNode: 8}
}

// MatmulEfficiency returns the achievable fraction of peak for transformer
// kernels at the given per-GPU matmul "M dimension" (tokens per microbatch
// per model-parallel rank). Small microbatches under-fill tensor cores and
// pay relatively more kernel launch and memory traffic — the driver of the
// MBS separation in Figs. 6–7. The curve saturates around 62% of peak, in
// line with measured end-to-end MFU on H100 BF16 training.
func MatmulEfficiency(tokensPerRank float64) float64 {
	if tokensPerRank <= 0 {
		return 0
	}
	// Calibrated against the paper's Table 1 / Figs. 6-7: ≈57% of peak at
	// 1k tokens/rank, with a mild (~8%) penalty from 1k down to 256
	// tokens/rank matching the MBS 4→1 separation at circular repeat 6.
	const etaMax = 0.605
	const halfPoint = 32.0
	return etaMax * tokensPerRank / (tokensPerRank + halfPoint)
}

// RingAllReduceTime returns the time of a ring all-reduce of `bytes` over n
// participants at bw GB/s per link with the given per-hop latency.
func RingAllReduceTime(bytes float64, n int, bwGBs, latency float64) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	vol := 2 * float64(n-1) / float64(n) * bytes
	return vol/(bwGBs*1e9) + float64(2*(n-1))*latency
}

// NVSwitchAllReduceTime returns the time of an intra-node all-reduce using
// NVLink SHARP (NVLS) in-switch reduction: each GPU moves ≈1× the payload
// through the switch instead of the ring's 2(n-1)/n.
func NVSwitchAllReduceTime(bytes float64, n int, bwGBs, latency float64) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	return bytes/(bwGBs*1e9) + 2*latency
}

// Link is a calibrated point-to-point channel model: the (bandwidth,
// latency) pair every collective cost formula consumes. The simulator builds
// Links from DeviceSpec fields; the executable collective engine builds them
// by measuring a real transport (collective.Calibrate), which is what lets
// executed collective wall-times be validated against the same analytic
// formulas the simulator uses.
type Link struct {
	BwGBs   float64 // one-direction bandwidth, GB/s
	Latency float64 // per-hop latency, seconds
}

// AllReduce returns the analytic ring all-reduce time over this link — the
// exact dpSync formula of the simulator's cost model.
func (l Link) AllReduce(bytes float64, n int) float64 {
	return RingAllReduceTime(bytes, n, l.BwGBs, l.Latency)
}

// P2PTime returns the time to move bytes point-to-point over the network.
func P2PTime(bytes float64, bwGBs, latency float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes/(bwGBs*1e9) + latency
}

// OptimizerBytesPerParam is the training-state footprint per parameter in
// BF16 mixed-precision Adam: bf16 weights (2) + bf16 grads (2) + fp32 master
// weights (4) + fp32 Adam moments (8) = 18 bytes.
const OptimizerBytesPerParam = 18.0

// GiB is 2^30 bytes, for reporting.
const GiB = 1024.0 * 1024.0 * 1024.0

// Seconds formats are left to callers; helpers below keep formulas readable.

// RematOverheadFactor is the extra compute fraction full rematerialization
// adds to the backward pass: one extra forward ≈ 1/3 of the fwd+bwd total.
const RematOverheadFactor = 1.0 / 3.0

// EffectiveBandwidthShare divides bandwidth among c concurrent flows.
func EffectiveBandwidthShare(bwGBs float64, flows int) float64 {
	if flows <= 1 {
		return bwGBs
	}
	return bwGBs / float64(flows)
}
