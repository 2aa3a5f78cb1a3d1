package sim

import (
	"fmt"
	"math"

	"repro/internal/schedule"
)

// Simulate runs one training step of the configuration and returns timing,
// throughput, memory, and breakdown.
func Simulate(c Config) (*Result, error) {
	cm, err := c.deriveCosts()
	if err != nil {
		return nil, err
	}
	if c.SyncPerIteration {
		return simulateSPMDLoop(c, cm)
	}
	sched, err := c.buildSchedule()
	if err != nil {
		return nil, err
	}

	peaks := sched.PeakInFlight()
	maxPeak := 0
	for _, p := range peaks {
		maxPeak = maxInt(maxPeak, p)
	}
	remat := c.decideRemat(cm, maxPeak)
	cm.remat = remat
	if remat {
		cm.rematExtra = cm.fwdCompute + cm.fwdColl
	}

	res, err := simulateEvents(c, cm, sched)
	if err != nil {
		return nil, err
	}
	res.Remat = remat
	actPer := cm.actPerMB
	if remat {
		actPer = cm.actPerMBR
	}
	res.WeightsMemGiB = cm.weightsMem / (1024 * 1024 * 1024)
	res.ActivationGiB = float64(maxPeak) * actPer / (1024 * 1024 * 1024)
	res.PeakMemGiB = res.WeightsMemGiB + res.ActivationGiB
	res.NumMicrobatches = c.NumMicrobatches()
	res.Stages = c.PP * c.CircularRepeat
	res.TFLOPSPerDevice = c.Model.StepFLOPs(c.GlobalBatch) / res.StepTime / float64(c.GPUs) / 1e12
	return res, nil
}

// simulateEvents is the discrete-event core: it times schedule.Replay, the
// run the compiler unrolls, under the cost model. A task lasts its compute,
// collectives, rematerialization and dispatch. Overlapped P2P is the lag of
// a cross-actor edge: the transfer rides on the data, not on either
// endpoint's clock. Synchronous P2P (SPMD-style) instead blocks the producer
// while the boundary transfer runs, and the consumer sees the data only at
// transfer end.
func simulateEvents(c Config, cm *costModel, sched *schedule.Schedule) (*Result, error) {
	numActors := sched.NumActors
	now := make([]float64, numActors)
	busyCompute := make([]float64, numActors)
	busyRemat := make([]float64, numActors)
	busyP2P := make([]float64, numActors)
	busyDispatch := make([]float64, numActors)
	tasks := 0

	crossActor := func(s1, s2 int) bool {
		return sched.StageActor[s1] != sched.StageActor[s2]
	}
	var lag func(from, to schedule.Entry) float64
	if c.OverlapP2P {
		lag = func(from, to schedule.Entry) float64 {
			if crossActor(from.Stage, to.Stage) {
				return cm.p2p
			}
			return 0
		}
	}
	err := sched.Replay(lag, func(a int, e schedule.Entry, start float64) (float64, error) {
		var dur float64
		switch e.Type {
		case schedule.Forward:
			dur = cm.fwdCompute + cm.fwdColl
			busyCompute[a] += dur
		default:
			dur = cm.bwdCompute + cm.bwdColl
			busyCompute[a] += dur
			if cm.remat {
				dur += cm.rematExtra
				busyRemat[a] += cm.rematExtra
			}
		}
		dur += cm.dispatch
		busyDispatch[a] += cm.dispatch
		end := start + dur
		sendsCross := e.Type == schedule.Forward && e.Stage < sched.NumStages-1 && crossActor(e.Stage, e.Stage+1) ||
			e.Type == schedule.Backward && e.Stage > 0 && crossActor(e.Stage, e.Stage-1)
		if sendsCross && !c.OverlapP2P {
			end += cm.p2p
			busyP2P[a] += cm.p2p
		}
		now[a] = end
		tasks++
		return end, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	makespan := 0.0
	slowest := 0
	for a := range now {
		if now[a] > makespan {
			makespan = now[a]
			slowest = a
		}
	}
	jitter := JitterPerLog2 * math.Log2(float64(c.GPUs))
	step := makespan + cm.dpSync + jitter

	res := &Result{
		StepTime: step,
		NumTasks: tasks,
		Breakdown: Breakdown{
			ComputeCollectives: busyCompute[slowest],
			Rematerialization:  busyRemat[slowest],
			P2P:                busyP2P[slowest],
			Dispatch:           busyDispatch[slowest],
			DPGradSync:         cm.dpSync,
		},
	}
	res.Breakdown.Bubble = step - busyCompute[slowest] - busyRemat[slowest] -
		busyP2P[slowest] - busyDispatch[slowest] - cm.dpSync
	totBusy := 0.0
	for a := range now {
		totBusy += busyCompute[a] + busyRemat[a] + busyP2P[a] + busyDispatch[a]
	}
	res.BubbleFraction = 1 - totBusy/(makespan*float64(numActors))
	return res, nil
}

// simulateSPMDLoop models the GSPMD stacked-stage encoding of pipeline
// parallelism (§2.2.2): one SPMD program where every loop iteration all
// actors perform the same (possibly discarded) computation, synchronize, and
// exchange boundary state with synchronous collective-permutes. Memory is
// GPipe-like — activations for all microbatches — which forces full
// rematerialization for large models.
func simulateSPMDLoop(c Config, cm *costModel) (*Result, error) {
	if c.CircularRepeat != 1 {
		return nil, fmt.Errorf("sim: the SPMD loop encoding supports only circular repeat 1")
	}
	numMB := c.NumMicrobatches()
	// GPipe-style memory: all in-flight microbatches pinned on stage 0.
	remat := c.ForceRemat || c.decideRemat(cm, numMB)
	cm.remat = remat
	if remat {
		cm.rematExtra = cm.fwdCompute + cm.fwdColl
	}

	fwdIters := float64(numMB + c.PP - 1)
	bwdIters := float64(numMB + c.PP - 1)
	syncOverhead := 2 * c.Cluster.Device.NVLinkLatency * float64(c.PP) // loop-step barrier

	fwdIterTime := cm.fwdCompute + cm.fwdColl + cm.dispatch + cm.p2p + syncOverhead
	bwdIterTime := cm.bwdCompute + cm.bwdColl + cm.dispatch + cm.p2p + syncOverhead
	if remat {
		bwdIterTime += cm.rematExtra
	}
	step := fwdIters*fwdIterTime + bwdIters*bwdIterTime + cm.dpSync +
		JitterPerLog2*math.Log2(float64(c.GPUs))

	res := &Result{
		StepTime:        step,
		Remat:           remat,
		NumTasks:        int(fwdIters + bwdIters),
		NumMicrobatches: numMB,
		Stages:          c.PP,
		Breakdown: Breakdown{
			ComputeCollectives: fwdIters*(cm.fwdCompute+cm.fwdColl) + bwdIters*(cm.bwdCompute+cm.bwdColl),
			Rematerialization:  bwdIters * cm.rematExtra,
			P2P:                (fwdIters + bwdIters) * (cm.p2p + syncOverhead),
			Dispatch:           (fwdIters + bwdIters) * cm.dispatch,
			DPGradSync:         cm.dpSync,
		},
	}
	// In the SPMD encoding the bubble is embodied as discarded compute: the
	// (PP-1)/(numMB+PP-1) share of iterations is wasted work, not idleness.
	res.BubbleFraction = float64(c.PP-1) / float64(numMB+c.PP-1)
	res.Breakdown.Bubble = 0
	actPer := cm.actPerMB
	if remat {
		actPer = cm.actPerMBR
	}
	res.WeightsMemGiB = cm.weightsMem / (1024 * 1024 * 1024)
	res.ActivationGiB = float64(numMB) * actPer / (1024 * 1024 * 1024)
	res.PeakMemGiB = res.WeightsMemGiB + res.ActivationGiB
	res.TFLOPSPerDevice = c.Model.StepFLOPs(c.GlobalBatch) / step / float64(c.GPUs) / 1e12
	return res, nil
}
