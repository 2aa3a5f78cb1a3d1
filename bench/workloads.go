package main

import (
	"math"

	"repro/internal/dist"
	"repro/internal/distrun"
)

// world is the rank count of every workload: four OS processes, so all
// workloads divide the machine's CPUs the same way.
const world = 4

// fullRepSeconds is the stepping budget of one repetition at which a
// workload runs its full-size step count: Spec.Steps take about ten seconds
// at the commit that defined the benchmark, on the two-vCPU reference box.
const fullRepSeconds = 10

// A workload is one JobSpec the benchmark trains. Spec.Steps is the
// full-size step count of one repetition. It is a constant of the benchmark,
// never chosen per commit: a faster program finishes the same steps sooner.
type workload struct {
	Name string
	Why  string
	Spec distrun.JobSpec
	// Parity marks the workload the CLI parity check runs on.
	Parity bool
}

var workloads = []workload{
	{
		Name: "pp4-compute",
		Why:  "1024 rows x 256^2 per step: tensor kernels and interp carry the step, the 2 MiB gradient exchange is a small share",
		Spec: distrun.JobSpec{Stages: 4, NumMB: 8, MBRows: 128, Width: 256, Schedule: "1f1b", LR: 0.05, Steps: 40},
	},
	{
		Name:   "pp4-small",
		Why:    "2 KiB activations, 8 KiB gradients: the step is per-message cost in runtime dispatch, dist mailbox and syscalls, ring latency",
		Spec:   distrun.JobSpec{Stages: 4, NumMB: 16, MBRows: 8, Width: 32, Schedule: "1f1b", LR: 0.02, Steps: 2000},
		Parity: true,
	},
	{
		Name: "dp2x2-dense",
		Why:  "16 rows against 4 MiB of f64 gradients through DP sync and the dense world AllReduce: codec, socket, ring, buckets, update",
		Spec: distrun.JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.01, Steps: 150},
	},
	{
		Name: "dp2x2-zq",
		Why:  "the dense shape on the other paths: sharded RS-V then AGV, int8q codec with error feedback, shard-local momentum update",
		Spec: distrun.JobSpec{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.002, Momentum: 0.9, Sharded: true, WireDType: "int8q", Steps: 150},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepsFor scales a workload's full-size step count to the stepping budget
// of one repetition. Every workload is scaled by the same factor
// repSeconds/fullRepSeconds.
func stepsFor(w workload, repSeconds float64) int {
	return max(1, int(math.Round(float64(w.Spec.Steps)*repSeconds/fullRepSeconds)))
}

// lossless reports whether the multi-process run must equal the in-process
// reference bit for bit.
func (w workload) lossless() bool {
	dt, err := dist.ParseDType(w.Spec.WireDType)
	return err == nil && dt.Lossless()
}

// gradElems is the element count of the workload's gradient tensor list: one
// Width x Width matrix per pipeline stage.
func (w workload) gradElems() int {
	return w.Spec.Stages * w.Spec.Width * w.Spec.Width
}
