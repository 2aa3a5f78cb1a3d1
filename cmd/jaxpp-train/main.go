// Command jaxpp-train runs a real (numeric) MPMD pipeline training job on
// the functional runtime: an S-stage MLP under a chosen schedule, with
// actors communicating in-process, over Unix-domain sockets (-tcp), or
// across OS processes (-distributed).
//
// Single process:
//
//	jaxpp-train -stages 4 -mb 8 -schedule 1f1b -steps 20 -tcp
//
// Multi-process (one coordinator + world-1 jaxpp-worker daemons; world =
// dp×stages actors, one per process):
//
//	jaxpp-train -distributed -coordinator 127.0.0.1:29400 -stages 4 -steps 20 &
//	jaxpp-worker -coordinator 127.0.0.1:29400 &   # × 3
//
// The coordinator distributes the job spec at rendezvous, so workers need
// no model flags; per-step losses are bit-identical to the in-process run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/distrun"
	"repro/internal/timeline"
)

func main() {
	stages := flag.Int("stages", 3, "pipeline stages (= actors per replica)")
	mb := flag.Int("mb", 6, "microbatches per step (gradient accumulation)")
	mbRows := flag.Int("mbrows", 8, "rows per microbatch")
	width := flag.Int("width", 32, "hidden width")
	steps := flag.Int("steps", 20, "training steps")
	lr := flag.Float64("lr", 0.5, "learning rate")
	momentum := flag.Float64("momentum", 0, "heavy-ball momentum coefficient (0 = plain SGD)")
	flag.Bool("sharded", false, "accepted, no effect: optimizer state is always sharded by the one distributed step epilogue (inside each stage's replica group: reduce the gradients, update the ranges this rank reduced, gather the stage's parameters; ~1/world optimizer memory per rank, full parameters only on rank 0 at the end and in checkpoints)")
	schedName := flag.String("schedule", "1f1b", "gpipe or 1f1b")
	dp := flag.Int("dp", 0, "data-parallel pipeline replicas (0/1 disables)")
	seed := flag.Uint64("seed", 1, "deterministic init seed")
	tcp := flag.Bool("tcp", false, "communicate over Unix-domain sockets (binary wire protocol, single process)")
	distributed := flag.Bool("distributed", false, "run across OS processes over the dist transport")
	coordinator := flag.String("coordinator", "127.0.0.1:29400", "coordinator control address in -distributed mode")
	crc := flag.Bool("crc", false, "append CRC32 trailers to wire frames; in -distributed mode the coordinator's setting configures the whole world")
	wireDType := flag.String("wire-dtype", "", "gradient wire encoding: f64 (default, lossless), f32, or int8q (error-feedback int8 quantization). Only gradient collective frames compress; the encoding travels in the job payload to every rank")
	netLatency := flag.Duration("net-latency", 0, "degraded-network mode: one-way latency added to every cross-rank frame (-distributed; distributed to workers via the job payload)")
	netJitter := flag.Duration("net-jitter", 0, "degraded-network mode: uniform ±jitter on -net-latency")
	netBW := flag.Float64("net-bw-gbs", 0, "degraded-network mode: per-link bandwidth cap in GB/s (0 = uncapped)")
	netLoss := flag.Float64("net-loss", 0, "degraded-network mode: per-frame loss probability (no retransmit: the receiver's Recv returns a timeout error and the job fails)")
	netSeed := flag.Uint64("net-seed", 1, "degraded-network mode: deterministic per-link jitter/loss seed")
	lossesOut := flag.String("losses-out", "", "write per-step losses as JSON to this path (rank 0 / local only)")
	profile := flag.Bool("profile", false, "arm the obs registry and log a one-line per-step compute/wire/idle summary")
	traceOut := flag.String("trace-out", "", "write the executed Chrome trace (all ranks merged) to this path (rank 0 / local only; implies -profile)")
	stepSleep := flag.Int("step-sleep-ms", 0, "sleep after every step (failure-injection test hook)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, and /debug/cluster on this address; in -distributed mode the coordinator aggregates heartbeat-streamed per-step samples from every rank and arms per-step telemetry for the whole world")
	flightDir := flag.String("flight-dir", "", "record rendezvous/checkpoint/failure events into a crash-surviving flight-recorder ring in this directory (replay with jaxpp-viz -flight)")
	ckptDir := flag.String("ckpt-dir", "", "enable rank-sharded checkpointing into this directory (and resume from its newest consistent checkpoint)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint period in steps (0 = default 10 when -ckpt-dir is set)")
	elastic := flag.Bool("elastic", false, "with -distributed rank 0: survive worker death by re-rendezvousing a smaller world and resuming from checkpoint")
	minReplicas := flag.Int("min-replicas", 1, "elastic mode: smallest data-parallel width to keep training with")
	maxAttempts := flag.Int("max-attempts", 3, "elastic mode: failed training attempts before giving up")
	joinGrace := flag.Duration("join-grace", 0, "elastic mode: extra wait for late joiners once the minimum world formed (0 = default 3s)")
	hbInterval := flag.Duration("hb-interval", 0, "heartbeat ping interval (0 = default 1s); the coordinator's setting configures the whole world")
	hbMisses := flag.Int("hb-misses", 0, "missed heartbeat intervals before a peer is declared dead (0 = default 5); the coordinator's setting configures the whole world")
	resume := flag.String("resume", "", "recover a restarted coordinator from this persisted cluster-state file (overrides job flags with the persisted spec)")
	flag.Parse()

	var shape *distrun.ShapeSpec
	if *netLatency > 0 || *netJitter > 0 || *netBW > 0 || *netLoss > 0 {
		shape = &distrun.ShapeSpec{
			LatencyUs: netLatency.Microseconds(), JitterUs: netJitter.Microseconds(),
			BandwidthGBs: *netBW, LossProb: *netLoss, Seed: *netSeed,
		}
	}
	spec := distrun.JobSpec{
		Stages: *stages, NumMB: *mb, MBRows: *mbRows, Width: *width,
		Steps: *steps, LR: *lr, Momentum: *momentum, Schedule: *schedName,
		DataParallel: *dp, Seed: *seed, StepSleepMs: *stepSleep,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery,
		Profile:   *profile || *traceOut != "",
		Telemetry: *metricsAddr != "",
		WireDType: *wireDType, Shape: shape,
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	onMetrics, telDone, err := distrun.SetupTelemetry(*metricsAddr, *flightDir, false)
	if err != nil {
		log.Fatal(err)
	}
	defer telDone()
	sessOpts := dist.SessionOptions{
		Transport:         dist.Options{CRC: *crc},
		HeartbeatInterval: *hbInterval,
		HeartbeatMisses:   *hbMisses,
		JoinGrace:         *joinGrace,
		OnMetrics:         onMetrics,
	}

	var rep *distrun.Report
	switch {
	case *resume != "":
		rep, err = runResumed(*resume, sessOpts, *minReplicas, *maxAttempts)
	case *distributed && *elastic:
		rep, err = runElastic(spec, *coordinator, sessOpts, *minReplicas, *maxAttempts)
	case *distributed:
		rep, err = runDistributed(spec, *coordinator, sessOpts)
	case *tcp:
		var mesh *dist.LocalMesh
		mesh, err = dist.NewLocalMesh(spec.World(), dist.Options{CRC: *crc})
		if err != nil {
			log.Fatal(err)
		}
		defer mesh.Close()
		fmt.Printf("actors on Unix-domain sockets: ")
		for a := 0; a < spec.World(); a++ {
			fmt.Printf("%s ", mesh.Addr(a))
		}
		fmt.Println()
		rep, err = distrun.RunLocalOn(spec, mesh)
	default:
		rep, err = distrun.RunLocal(spec)
	}
	if err != nil {
		log.Fatal(err)
	}
	for s, loss := range rep.StepLosses {
		// Loss histories cover steps StartStep..Steps-1; print absolute
		// step numbers so a resumed run's output aligns with the original.
		if s%5 == 0 || s == len(rep.StepLosses)-1 {
			fmt.Printf("step %3d  loss %.4f\n", rep.StartStep+s, loss)
		}
	}
	if *lossesOut != "" {
		if err := writeLosses(*lossesOut, rep); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rep); err != nil {
			log.Fatal(err)
		}
	}
}

// writeTrace merges the per-rank profile snapshots gathered on rank 0 into a
// single Chrome trace-event JSON file (chrome://tracing / Perfetto, or
// jaxpp-viz -exec). Span start times are wall-anchored per process, so the
// merged timeline aligns across ranks on one machine.
func writeTrace(path string, rep *distrun.Report) error {
	events := timeline.EventsFromSnapshots(rep.Profiles)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := timeline.WriteChromeTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	ranks := map[int]bool{}
	for _, s := range rep.Profiles {
		ranks[s.Rank] = true
	}
	fmt.Printf("trace: %d spans from %d rank(s) -> %s\n", len(events), len(ranks), path)
	return nil
}

// runElastic runs the coordinator's rendezvous–train–recover loop (rank 0);
// the other ranks are jaxpp-worker -reconnect daemons.
func runElastic(spec distrun.JobSpec, coordinator string, sessOpts dist.SessionOptions, minReplicas, maxAttempts int) (*distrun.Report, error) {
	opt := distrun.ElasticOptions{
		CtrlAddr:    coordinator,
		MinReplicas: minReplicas,
		MaxAttempts: maxAttempts,
		Session:     sessOpts,
		StatePath:   ckpt.DefaultStatePath(spec.CkptDir),
	}
	fmt.Printf("elastic coordinator up: world <= %d (min %d replicas × %d stages) at %s\n",
		spec.World(), minReplicas, spec.Stages, coordinator)
	return distrun.RunElasticCoordinator(spec, opt, 0)
}

// runResumed recovers a restarted coordinator from a persisted cluster state:
// the saved spec and control address override the command line, and the
// elastic loop continues from the recorded attempt count. Workers running
// with -reconnect re-join as soon as the rendezvous listener is back.
func runResumed(statePath string, sessOpts dist.SessionOptions, minReplicas, maxAttempts int) (*distrun.Report, error) {
	st, err := ckpt.LoadState(statePath)
	if err != nil {
		return nil, err
	}
	spec, err := distrun.UnmarshalJobSpec(st.Spec)
	if err != nil {
		return nil, err
	}
	opt := distrun.ElasticOptions{
		CtrlAddr:    st.CtrlAddr,
		MinReplicas: minReplicas,
		MaxAttempts: maxAttempts,
		Session:     sessOpts,
		StatePath:   statePath,
	}
	fmt.Printf("resuming coordinator from %s: attempt %d, world <= %d at %s\n",
		statePath, st.Attempt, spec.World(), st.CtrlAddr)
	return distrun.RunElasticCoordinator(spec, opt, st.Attempt)
}

// runDistributed runs rank 0 of the training job: it coordinates, distributes
// the spec as the rendezvous payload to world-1 jaxpp-worker daemons, hosts
// actor 0 and runs that spec.
func runDistributed(spec distrun.JobSpec, coordinator string, opts dist.SessionOptions) (*distrun.Report, error) {
	sess, err := dist.Coordinate(coordinator, spec.World(), spec.Marshal(), opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	fmt.Printf("coordinator up: world %d (%d replicas × %d stages) at %s\n",
		spec.World(), spec.Replicas(), spec.Stages, coordinator)
	return distrun.Run(sess, spec)
}

// lossesFile is the -losses-out JSON schema. A distributed run and the
// in-process run of the same flags write the same bytes (legs_test.go).
type lossesFile struct {
	StepLosses []float64   `json:"step_losses"`
	MBLosses   [][]float64 `json:"mb_losses"`
}

func writeLosses(path string, rep *distrun.Report) error {
	data, err := json.MarshalIndent(lossesFile{StepLosses: rep.StepLosses, MBLosses: rep.MBLosses}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
