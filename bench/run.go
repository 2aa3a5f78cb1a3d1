package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	jaxpp "repro"
	"repro/internal/distrun"
)

// config is one harness invocation.
type config struct {
	exe     string // the harness binary, re-executed for every child
	srcDir  string // the bench module, where the parity check builds the CLIs
	outDir  string
	runID   string
	seed    uint64
	seconds float64 // timed-stepping budget of all repetitions together
	// reps counts the timed repetitions: each a Steps=0 job, a fresh local
	// process and a fresh job.
	reps    int
	probe   probeConfig
	e2e     bool // report the end-to-end metrics
	layers  bool // report the per-layer metrics: probes and the traced run
	cpus    int
	rankGMP int // GOMAXPROCS of each rank process
}

// measured is everything the harness saw of one workload.
type measured struct {
	w     workload
	spec  distrun.JobSpec
	steps int

	attempted, failed int
	errs              []string

	stepsPerS, localStepsPerS []float64 // one per repetition
	setupS, rendezvousMs      []float64 // one per Steps=0 job
	zero                      *jobResult
	job                       *jobResult // a timed repetition's job
	local                     *childOut
	localZero                 *childOut // RunLocal at Steps=0, for the allocations set-up makes
	relErr                    float64
	probes                    map[string]float64
	traced                    *jobResult
	spans                     []span
	traceFile                 string
}

func (m *measured) errorf(format string, args ...any) {
	m.errs = append(m.errs, fmt.Sprintf(format, args...))
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", m.w.Name, m.errs[len(m.errs)-1])
}

// jobDeadline is ten times the wall time a job of the given stepping budget
// is expected to take (head start, spawn, rendezvous and exit come to about a
// second). On expiry the job's process groups are killed and its steps count
// as failed.
func jobDeadline(stepping float64) time.Duration {
	return time.Duration(10 * (stepping + 1) * float64(time.Second))
}

// measure runs one workload. Closed loop: each step starts when the previous
// one finishes; four ranks.
func measure(ctx context.Context, cfg config, w workload) *measured {
	repSeconds := cfg.seconds / float64(cfg.reps)
	m := &measured{w: w, spec: w.Spec, steps: stepsFor(w, repSeconds)}
	m.spec.Seed = cfg.seed
	m.spec.Steps = m.steps
	specJSON := string(m.spec.Marshal())

	// Each repetition runs a set-up job, then the in-process reference in a
	// fresh process at GOMAXPROCS=cpus, then the job in four fresh processes,
	// tracing off. Interleaving them spreads every metric's samples over the
	// whole run, so that a slow spell of the machine cannot land on one metric
	// alone.
	for i := 0; i < cfg.reps && ctx.Err() == nil; i++ {
		m.setup(ctx, cfg)
		m.attempted += m.steps
		if err := m.repetition(ctx, cfg, repSeconds, specJSON); err != nil {
			m.failed += m.steps
			m.errorf("repetition %d: %v", i, err)
		}
	}
	if !cfg.layers || m.local == nil || ctx.Err() != nil {
		return m
	}

	// Per-layer: the probes, then one more repetition with JobSpec.Profile
	// set, which is the obs plane the program already has.
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		m.errorf("%v", err)
		return m
	}
	defer os.RemoveAll(tmp)
	probeArgs := []string{"-role", roleProbe, "-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-probe-dur", cfg.probe.Dur.String(), "-probe-reps", strconv.Itoa(cfg.probe.Reps), "-out", tmp}
	probeDeadline := 10 * time.Duration(timedProbes*cfg.probe.Reps) * (cfg.probe.Dur + 100*time.Millisecond)
	if err := runChild(ctx, cfg.exe, 1, probeDeadline, &m.probes, probeArgs...); err != nil {
		m.errorf("probes: %v", err)
	}

	zeroSpec := m.spec
	zeroSpec.Steps = 0
	var localZero childOut
	if err := runChild(ctx, cfg.exe, cfg.cpus, jobDeadline(0), &localZero, "-role", roleLocal, "-spec", string(zeroSpec.Marshal())); err != nil {
		m.errorf("local Steps=0: %v", err)
	} else {
		m.localZero = &localZero
	}

	m.attempted += m.steps
	tracedSpec := m.spec
	tracedSpec.Profile = true
	j, err := runJob(ctx, cfg, shortHeadStart, jobDeadline(repSeconds), tracedSpec)
	if err == nil {
		_, err = checkJob(w, &j.Ranks[0], m.local)
	}
	if err == nil && len(j.Ranks[0].Profiles) != world {
		err = fmt.Errorf("rank 0 gathered %d profiles, want %d", len(j.Ranks[0].Profiles), world)
	}
	if err != nil {
		m.failed += m.steps
		m.errorf("traced repetition: %v", err)
		return m
	}
	m.traced = j
	m.spans = jobSpans(cfg.runID, j)
	m.traceFile = filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
	if err := writeTrace(m.traceFile, m.spans, j.Ranks[0].Profiles); err != nil {
		m.errorf("%v", err)
	}

	if w.Parity {
		if err := cliParity(ctx, cfg, m.spec, m.job.Ranks[0].Losses, tmp); err != nil {
			m.errorf("CLI parity: %v", err)
		}
	}
	return m
}

// setup runs one Steps=0 job: process start, join, mesh connect, compile and
// the end barrier, and nothing else.
func (m *measured) setup(ctx context.Context, cfg config) {
	spec := m.spec
	spec.Steps = 0
	j, err := runJob(ctx, cfg, headStart, jobDeadline(0), spec)
	if err != nil {
		m.errorf("set-up job: %v", err)
		return
	}
	if m.zero != nil && (j.sentBytes() != m.zero.sentBytes() || j.sentFrames() != m.zero.sentFrames()) {
		m.errorf("set-up job sent %d B in %d frames, an earlier one %d B in %d", j.sentBytes(), j.sentFrames(), m.zero.sentBytes(), m.zero.sentFrames())
	}
	m.zero = j
	workersSpawned := j.SpawnNs[1]
	m.setupS = append(m.setupS, float64(j.Ranks[0].RunEndNs-workersSpawned)/1e9)
	m.rendezvousMs = append(m.rendezvousMs, float64(j.Ranks[0].RdvEndNs-max(j.Ranks[0].RdvStartNs, workersSpawned))/1e6)
}

// repetition runs and checks one timed repetition.
func (m *measured) repetition(ctx context.Context, cfg config, repSeconds float64, specJSON string) error {
	var local childOut
	if err := runChild(ctx, cfg.exe, cfg.cpus, jobDeadline(repSeconds), &local, "-role", roleLocal, "-spec", specJSON); err != nil {
		return fmt.Errorf("local: %w", err)
	}
	j, err := runJob(ctx, cfg, shortHeadStart, jobDeadline(repSeconds), m.spec)
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	relErr, err := checkJob(m.w, &j.Ranks[0], &local)
	m.relErr = max(m.relErr, relErr)
	if err != nil {
		return err
	}
	if m.job != nil && (j.sentBytes() != m.job.sentBytes() || j.sentFrames() != m.job.sentFrames()) {
		return fmt.Errorf("sent %d B in %d frames, an earlier repetition %d B in %d", j.sentBytes(), j.sentFrames(), m.job.sentBytes(), m.job.sentFrames())
	}
	m.job, m.local = j, &local
	m.stepsPerS = append(m.stepsPerS, float64(m.steps)/j.Ranks[0].runSeconds())
	m.localStepsPerS = append(m.localStepsPerS, float64(m.steps)/local.runSeconds())
	return nil
}

// checkJob holds rank 0's report of a job against the in-process reference.
// A lossless workload must equal it bit for bit, losses and final
// parameters. A lossy one must stay within 5% relative loss error at every
// step. Every workload must still be learning at its last step. It returns
// the largest relative loss error.
func checkJob(w workload, got, ref *childOut) (float64, error) {
	if len(got.Losses) != len(ref.Losses) || len(ref.Losses) == 0 {
		return 0, fmt.Errorf("job reported %d losses, reference %d", len(got.Losses), len(ref.Losses))
	}
	var relErr float64
	for i, l := range got.Losses {
		if math.IsNaN(l) || math.IsNaN(ref.Losses[i]) {
			return 0, fmt.Errorf("loss at step %d is NaN", i)
		}
		relErr = max(relErr, math.Abs(l-ref.Losses[i])/math.Abs(ref.Losses[i]))
	}
	if w.lossless() {
		if relErr != 0 {
			return relErr, fmt.Errorf("losses differ from the in-process reference (max relative error %g)", relErr)
		}
		if got.ParamsHash != ref.ParamsHash {
			return relErr, fmt.Errorf("final parameters differ from the in-process reference")
		}
	} else if relErr > 0.05 {
		return relErr, fmt.Errorf("loss strays %.3g from the in-process reference, limit 0.05", relErr)
	}
	for _, losses := range [][]float64{got.Losses, ref.Losses} {
		if err := stillLearning(losses); err != nil {
			return relErr, err
		}
	}
	return relErr, nil
}

// stillLearning requires loss[last] < loss[last-10] < loss[0], so that no
// run is timed on a model whose gradients have gone to zero. Runs shorter
// than 21 steps compare across a proportionally shorter gap.
func stillLearning(losses []float64) error {
	last := len(losses) - 1
	gap := min(10, last/2)
	if gap == 0 {
		return nil
	}
	if !(losses[last] < losses[last-gap] && losses[last-gap] < losses[0]) {
		return fmt.Errorf("training stalled: loss[0]=%g loss[%d]=%g loss[%d]=%g", losses[0], last-gap, losses[last-gap], last, losses[last])
	}
	return nil
}

// endToEndValues returns the samples behind each end-to-end metric.
func (m *measured) endToEndValues() map[string][]float64 {
	v := map[string][]float64{
		"steps_per_s":       m.stepsPerS,
		"local_steps_per_s": m.localStepsPerS,
		"setup_s":           m.setupS,
	}
	if m.job != nil && m.zero != nil {
		v["wire_bytes_per_step"] = []float64{float64(m.job.sentBytes()-m.zero.sentBytes()) / float64(m.steps)}
	}
	return v
}

// perLayerValues returns the per-layer metrics: the probes' values, the
// traced run's, and what the job runs themselves show.
func (m *measured) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	for k, x := range m.probes {
		v[k] = x
	}
	steps := float64(m.steps)
	if m.job != nil {
		v["runtime.peak_rss_mb"] = float64(m.job.MaxRSSKB) / 1024
		v["distrun.loss_rel_err"] = m.relErr
		if m.zero != nil {
			// What a Steps=0 job sends and allocates is set-up, not stepping.
			v["dist.frames_per_step"] = float64(m.job.sentFrames()-m.zero.sentFrames()) / steps
			v["runtime.allocs_per_step"] = (float64(m.job.mallocs()) - float64(m.zero.mallocs())) / world / steps
		}
		if m.localZero != nil {
			v["runtime.local_allocs_per_step"] = (float64(m.local.Mallocs) - float64(m.localZero.Mallocs)) / steps
		}
	}
	v["dist.rendezvous_ms"] = median(m.rendezvousMs)
	var sched *jaxpp.Schedule
	if m.spec.Schedule == "gpipe" {
		sched = jaxpp.GPipe(m.spec.Stages, m.spec.NumMB)
	} else {
		sched = jaxpp.OneFOneB(m.spec.Stages, m.spec.NumMB)
	}
	v["schedule.bubble_frac"] = sched.BubbleFraction(2)
	if m.traced != nil {
		profiles := m.traced.Ranks[0].Profiles
		for _, d := range perLayer {
			if d.Scopes != nil {
				v[d.Name] = scopeMsPerStep(profiles, m.steps, d.Scopes)
			}
		}
		v["runtime.idle_frac"] = idleFrac(profiles)
		traced := steps / m.traced.Ranks[0].runSeconds()
		v["obs.trace_overhead_pct"] = (median(m.stepsPerS)/traced - 1) * 100
	}
	return v
}
