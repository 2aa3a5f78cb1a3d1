package jaxpp

import (
	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// The simulation API re-exports the calibrated performance model behind the
// paper's evaluation (§5: Figs. 6–10 and Table 1). There are no GPUs to run
// on, so the EOS cluster of §5 is modeled by a discrete-event simulator over
// real pipeline schedules; README's "Benchmarks, examples, simulation"
// section lists the command that regenerates each figure and table.

// TransformerConfig describes a transformer workload for the simulator.
type TransformerConfig = model.TransformerConfig

// GPT3175B is the GPT-3 175B configuration of §5.
func GPT3175B() TransformerConfig { return model.GPT3_175B() }

// SimConfig is one simulated training configuration (a Table 1 row).
type SimConfig = sim.Config

// SimScheduleKind converts a schedule name ("gpipe", "1f1b",
// "interleaved_1f1b") for SimConfig.Schedule.
func SimScheduleKind(name string) sim.ScheduleKind { return sim.ScheduleKind(name) }

// SimResult is the simulated outcome of a training step.
type SimResult = sim.Result

// EOSCluster returns the DGX H100 cluster model the paper evaluates on.
func EOSCluster() perf.ClusterSpec { return perf.EOS() }

// SimulateJaxPP simulates a JaxPP run: (interleaved) 1F1B schedule,
// overlapped asynchronous P2P, capacity-driven rematerialization.
func SimulateJaxPP(c SimConfig) (*SimResult, error) { return baselines.JaxPPSimulate(c) }

// FSDPConfig is a fully-sharded data-parallel configuration.
type FSDPConfig = baselines.FSDPConfig

// SimulateFSDP simulates the JAX FSDP baseline.
func SimulateFSDP(c FSDPConfig) (*SimResult, error) { return baselines.FSDPSimulate(c) }
