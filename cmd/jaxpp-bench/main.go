// Command jaxpp-bench regenerates the paper's tables and figures on the
// simulator, and snapshots headline metrics for trend tracking. Usage:
//
//	jaxpp-bench -exp all|fig6|fig7|fig8|fig9|fig10|table1|ablations|validate
//	jaxpp-bench -json BENCH_baseline.json   # machine-readable perf snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"time"

	jaxpp "repro"
	"repro/internal/autodiff"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// shapedRatioLo/Hi is the accepted executed-vs-analytic band for the
// shaped-network validation (-exp shaped): the analytic model is a
// store-and-forward idealization, so the band is generous, but an execution
// drifting outside it means the calibration model stopped tracking degraded
// networks — the regression the degraded-net CI tier exists to catch.
const (
	shapedRatioLo = 0.4
	shapedRatioHi = 2.5
)

// collectiveValidation compares one executed bucketed ring AllReduce on the
// in-process transport against the simulator's analytic dpSync formula under
// a calibrated link.
type collectiveValidation struct {
	Ranks         int     `json:"ranks"`
	Elems         int     `json:"elems"`
	LinkGBs       float64 `json:"link_gbs"`
	LinkLatencyUs float64 `json:"link_latency_us"`
	ExecutedMs    float64 `json:"executed_ms"`
	AnalyticMs    float64 `json:"analytic_ms"`
	Ratio         float64 `json:"ratio"`
}

func validateCollective() (*collectiveValidation, error) {
	const ranks, elems = 4, 1 << 19
	link := collective.Calibrate(runtime.NewChanTransport(), 0, 1)
	measured, _, err := collective.MeasureAllReduce(runtime.NewChanTransport(), ranks, elems, collective.DefaultBucketBytes)
	if err != nil {
		return nil, err
	}
	predicted := collective.PredictBucketedAllReduce(collective.RingLink(link, ranks), []int{elems}, ranks, collective.DefaultBucketBytes)
	return &collectiveValidation{
		Ranks:         ranks,
		Elems:         elems,
		LinkGBs:       link.BwGBs,
		LinkLatencyUs: link.Latency * 1e6,
		ExecutedMs:    measured.Seconds() * 1e3,
		AnalyticMs:    predicted * 1e3,
		Ratio:         measured.Seconds() / predicted,
	}, nil
}

// kernelStats are executed-kernel micro measurements recorded alongside the
// executed-vs-analytic ratio, so kernel regressions and model drift are
// distinguishable in the snapshot diff.
type kernelStats struct {
	// MatMulKernel is the micro-kernel the number below was measured on:
	// "avx2" (assembly) or "generic" (pure Go) — a snapshot taken on a
	// machine or build without the assembly is not a regression.
	MatMulKernel    string  `json:"matmul_kernel"`
	MatMul256GFLOPs float64 `json:"matmul_256_gflops"`
	InterpStepUs    float64 `json:"interp_step_us"`
}

// measureKernels times a 256x256 matmul and one compiled forward+backward
// interpreter step of a 4-layer MLP (the op mix pipeline segments execute).
func measureKernels() (*kernelStats, error) {
	const size = 256
	rng := tensor.NewRNG(1)
	a := rng.Normal(1, size, size)
	b := rng.Normal(1, size, size)
	dst := tensor.New(size, size)
	const mmIters = 10
	tensor.MatMulInto(dst, a, b) // warm the worker pool
	t0 := time.Now()
	for i := 0; i < mmIters; i++ {
		tensor.MatMulInto(dst, a, b)
	}
	mmSecs := time.Since(t0).Seconds() / mmIters
	flops := 2 * float64(size) * float64(size) * float64(size)

	const depth, rows, width = 4, 8, 32
	var params []*ir.Value
	g, err := trace.Trace("bench-mlp", func(tb *trace.Builder) []*ir.Value {
		x := tb.Input("x", rows, width)
		y := tb.Input("y", rows, width)
		h := x
		for d := 0; d < depth; d++ {
			w := tb.Input(fmt.Sprintf("w%d", d), width, width)
			params = append(params, w)
			h = tb.ReLU(tb.MatMul(h, w))
		}
		return []*ir.Value{tb.CrossEntropy(h, y)}
	})
	if err != nil {
		return nil, err
	}
	gg, err := autodiff.ValueAndGrad(g, params)
	if err != nil {
		return nil, err
	}
	prog, err := interp.NewProgram(gg)
	if err != nil {
		return nil, err
	}
	inputs := []*tensor.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width)}
	for range params {
		inputs = append(inputs, rng.Xavier(width, width))
	}
	const warm, iters = 20, 200
	for i := 0; i < warm; i++ {
		if _, err := prog.Run(inputs); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := prog.Run(inputs); err != nil {
			return nil, err
		}
	}
	return &kernelStats{
		MatMulKernel:    tensor.MatMulKernel(),
		MatMul256GFLOPs: flops / mmSecs / 1e9,
		InterpStepUs:    time.Since(t1).Seconds() / iters * 1e6,
	}, nil
}

// runtimeStepStats measures steady-state training steps on the real MPMD
// runtime: wall time and heap allocations per Executable.Step, the driver
// metric the dense-store/zero-copy-view work optimizes. Allocation counts
// are deterministic enough to gate on (-max-step-allocs).
type runtimeStepStats struct {
	PipelineStepMs     float64 `json:"pipeline_step_ms"`
	PipelineStepAllocs float64 `json:"pipeline_step_allocs"`
	DPxPPStepMs        float64 `json:"dpxpp_step_ms"`
	DPxPPStepAllocs    float64 `json:"dpxpp_step_allocs"`
}

// mlpTrainStep compiles the same S-stage MLP configuration the runtime step
// benchmarks use.
func mlpTrainStep(stages, mbRows, numMB, width, dp int) (*jaxpp.TrainStep, []*jaxpp.Tensor, []*jaxpp.Tensor, error) {
	paramShapes := make([][]int, stages)
	for i := range paramShapes {
		paramShapes[i] = []int{width, width}
	}
	spec := jaxpp.CompileSpec{
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			h := mb[0]
			for i, w := range params {
				h = b.ReLU(b.MatMul(h, w))
				if i+1 < len(params) {
					h = b.PipelineYield(h)
				}
			}
			return b.CrossEntropy(h, mb[1])
		},
		ParamShapes:  paramShapes,
		BatchShapes:  [][]int{{mbRows, width}, {mbRows, width}},
		Schedule:     jaxpp.OneFOneB(stages, numMB),
		DataParallel: dp,
	}
	mesh := jaxpp.NewRemoteMesh(max(dp, 1) * stages)
	step, err := mesh.Compile(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := jaxpp.NewRNG(1)
	var params []*jaxpp.Tensor
	for i := 0; i < stages; i++ {
		params = append(params, rng.Xavier(width, width))
	}
	rows := max(dp, 1) * numMB * mbRows
	batch := []*jaxpp.Tensor{rng.Normal(1, rows, width), rng.OneHotBatch(rows, width)}
	return step, params, batch, nil
}

// measureStep runs warm-up steps, then times and counts heap allocations over
// iters steady-state steps with the GC paused (a collection mid-measurement
// would drop the scratch pools and charge the refill to the step). Results
// land in reused StepInto buffers, so the driver-side result slices of Step
// no longer appear in the per-step allocation count.
func measureStep(step *jaxpp.TrainStep, params, batch []*jaxpp.Tensor) (ms, allocs float64, err error) {
	const warm, iters = 5, 20
	losses := make([]*jaxpp.Tensor, step.NumReplicas()*step.NumMicrobatches())
	grads := make([]*jaxpp.Tensor, len(params))
	for i := 0; i < warm; i++ {
		if err := step.StepInto(params, batch, losses, grads); err != nil {
			return 0, 0, err
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := step.StepInto(params, batch, losses, grads); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	goruntime.ReadMemStats(&after)
	return elapsed.Seconds() * 1e3 / iters, float64(after.Mallocs-before.Mallocs) / iters, nil
}

// measureRuntimeSteps reproduces BenchmarkRuntimePipelineStep and
// BenchmarkRuntimeDPxPPStep outside the testing harness.
func measureRuntimeSteps() (*runtimeStepStats, error) {
	s := &runtimeStepStats{}
	step, params, batch, err := mlpTrainStep(4, 8, 8, 32, 0)
	if err != nil {
		return nil, err
	}
	defer step.Close()
	if s.PipelineStepMs, s.PipelineStepAllocs, err = measureStep(step, params, batch); err != nil {
		return nil, err
	}
	dpStep, dpParams, dpBatch, err := mlpTrainStep(4, 8, 4, 32, 2)
	if err != nil {
		return nil, err
	}
	defer dpStep.Close()
	if s.DPxPPStepMs, s.DPxPPStepAllocs, err = measureStep(dpStep, dpParams, dpBatch); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshot is the machine-readable perf baseline future PRs diff against.
type snapshot struct {
	Fig6BestTFLOPSPerDevice float64               `json:"fig6_best_tflops_per_device"`
	Fig8WeakScalingEffPct   float64               `json:"fig8_weak_scaling_eff_pct"`
	Table1MeanAbsStepErrPct float64               `json:"table1_mean_abs_step_err_pct"`
	Kernels                 *kernelStats          `json:"kernels"`
	RuntimeSteps            *runtimeStepStats     `json:"runtime_steps"`
	Collective              *collectiveValidation `json:"collective_validation"`
	Wire                    *wireStats            `json:"wire"`
	Sharded                 *shardedStats         `json:"sharded"`
	Profile                 *profileBlock         `json:"profile"`
}

func buildSnapshot() (*snapshot, error) {
	s := &snapshot{}
	fig6, err := experiments.Fig6()
	if err != nil {
		return nil, err
	}
	for _, r := range fig6 {
		if r.Result.TFLOPSPerDevice > s.Fig6BestTFLOPSPerDevice {
			s.Fig6BestTFLOPSPerDevice = r.Result.TFLOPSPerDevice
		}
	}
	fig8, err := experiments.Fig8()
	if err != nil {
		return nil, err
	}
	var first, last float64
	for _, r := range fig8 {
		if r.System == "JaxPP" {
			if first == 0 {
				first = r.Result.TFLOPSPerDevice
			}
			last = r.Result.TFLOPSPerDevice
		}
	}
	if first > 0 {
		s.Fig8WeakScalingEffPct = 100 * last / first
	}
	table1, err := experiments.Table1()
	if err != nil {
		return nil, err
	}
	var sum float64
	var n int
	for _, r := range table1 {
		if r.PaperStepTime > 0 {
			e := r.Result.StepTime/r.PaperStepTime - 1
			if e < 0 {
				e = -e
			}
			sum += e
			n++
		}
	}
	if n > 0 {
		s.Table1MeanAbsStepErrPct = 100 * sum / float64(n)
	}
	s.Kernels, err = measureKernels()
	if err != nil {
		return nil, err
	}
	s.RuntimeSteps, err = measureRuntimeSteps()
	if err != nil {
		return nil, err
	}
	s.Collective, err = validateCollective()
	if err != nil {
		return nil, err
	}
	s.Wire, err = measureWire()
	if err != nil {
		return nil, err
	}
	s.Sharded, err = measureSharded()
	if err != nil {
		return nil, err
	}
	// The profile tiers run last: they arm the obs registry, and every timed
	// measurement above must finish before the gate ever flips on.
	s.Profile, err = measureProfile(s.RuntimeSteps.PipelineStepMs)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// checkRegression is the trajectory gate: it compares the fresh runtime-step
// measurements against a committed baseline snapshot and fails when step
// time or allocations regress more than maxPct percent. Allocation counts
// are deterministic; timings carry machine jitter, which is why the
// threshold is a generous 25% by default rather than a tight bound.
func checkRegression(cur, base *runtimeStepStats, maxPct float64) error {
	if base == nil {
		return fmt.Errorf("baseline snapshot has no runtime_steps block")
	}
	checks := []struct {
		name      string
		cur, base float64
	}{
		{"pipeline step ms", cur.PipelineStepMs, base.PipelineStepMs},
		{"pipeline step allocs", cur.PipelineStepAllocs, base.PipelineStepAllocs},
		{"DPxPP step ms", cur.DPxPPStepMs, base.DPxPPStepMs},
		{"DPxPP step allocs", cur.DPxPPStepAllocs, base.DPxPPStepAllocs},
	}
	for _, c := range checks {
		if c.base <= 0 {
			// A zero baseline means the snapshot is schema-drifted or
			// corrupt; fail loudly rather than silently checking nothing.
			return fmt.Errorf("baseline has no usable %q value (%v)", c.name, c.base)
		}
		if limit := c.base * (1 + maxPct/100); c.cur > limit {
			return fmt.Errorf("%s regressed: %.3f vs baseline %.3f (+%.1f%%, limit +%.0f%%)",
				c.name, c.cur, c.base, 100*(c.cur/c.base-1), maxPct)
		}
	}
	return nil
}

// loadBaseline reads a committed snapshot for the regression gate.
func loadBaseline(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &s, nil
}

// checkStepAllocs enforces the allocs-per-step ceiling, the CI gate that
// keeps the SliceRange0-copy/store-churn allocation regression class from
// silently returning.
func checkStepAllocs(rs *runtimeStepStats, maxAllocs float64) error {
	if rs.PipelineStepAllocs > maxAllocs {
		return fmt.Errorf("pipeline step allocates %.0f objects, ceiling %.0f", rs.PipelineStepAllocs, maxAllocs)
	}
	if rs.DPxPPStepAllocs > maxAllocs {
		return fmt.Errorf("DPxPP step allocates %.0f objects, ceiling %.0f", rs.DPxPPStepAllocs, maxAllocs)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig6, fig7, fig8, fig9, fig10, table1, ablations, validate, wire, sharded, shaped")
	jsonPath := flag.String("json", "", "write a machine-readable perf snapshot to this path and exit")
	maxStepAllocs := flag.Float64("max-step-allocs", 0, "fail (exit 1) if a steady-state runtime step allocates more than this many objects; without -json only the step measurement runs")
	baselinePath := flag.String("baseline", "", "committed snapshot to diff runtime_steps against; step time or allocs more than -max-regress percent worse fail (exit 1)")
	maxRegress := flag.Float64("max-regress", 25, "allowed runtime-step regression vs -baseline, in percent")
	maxDisabledOverhead := flag.Float64("max-disabled-overhead-pct", 1, "with -json: fail (exit 1) if the disabled obs registry's estimated share of a pipeline step exceeds this percentage (0 disables)")
	wirePeer := flag.String("wire-peer", "", "internal: act as the multi-process wire-bench echo peer (coordinator address)")
	flag.Parse()

	if *wirePeer != "" {
		wirePeerMain(*wirePeer)
		return
	}

	gate := func(rs *runtimeStepStats) {
		if *maxStepAllocs > 0 {
			if err := checkStepAllocs(rs, *maxStepAllocs); err != nil {
				fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
				os.Exit(1)
			}
		}
		if *baselinePath != "" {
			base, err := loadBaseline(*baselinePath)
			if err == nil {
				err = checkRegression(rs, base.RuntimeSteps, *maxRegress)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("runtime steps within %.0f%% of %s\n", *maxRegress, *baselinePath)
		}
	}

	if *jsonPath != "" {
		s, err := buildSnapshot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		gate(s.RuntimeSteps)
		if *maxDisabledOverhead > 0 && s.Profile.DisabledOverheadPct > *maxDisabledOverhead {
			fmt.Fprintf(os.Stderr, "jaxpp-bench: disabled obs registry costs %.3f%% of a pipeline step (%.1f ns/site), limit %.1f%%\n",
				s.Profile.DisabledOverheadPct, s.Profile.DisabledTrackNs, *maxDisabledOverhead)
			os.Exit(1)
		}
		return
	}

	if *maxStepAllocs > 0 || *baselinePath != "" {
		rs, err := measureRuntimeSteps()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("pipeline step: %.3f ms, %.0f allocs; DPxPP step: %.3f ms, %.0f allocs\n",
			rs.PipelineStepMs, rs.PipelineStepAllocs, rs.DPxPPStepMs, rs.DPxPPStepAllocs)
		gate(rs)
		return
	}

	run := func(name string) error {
		switch name {
		case "fig6":
			rows, err := experiments.Fig6()
			if err != nil {
				return err
			}
			experiments.Print(os.Stdout, "Fig. 6: GPT-3 175B, TP8xPP8, 64 GPUs, GBS 128 — circular repeat sweep", rows)
		case "fig7":
			rows, err := experiments.Fig7()
			if err != nil {
				return err
			}
			experiments.Print(os.Stdout, "Fig. 7: GPT-3 175B, TP8xPP8, CR 6 — microbatch sweep", rows)
		case "fig8":
			rows, err := experiments.Fig8()
			if err != nil {
				return err
			}
			experiments.Print(os.Stdout, "Fig. 8: weak scaling, GBS = 2x GPUs", rows)
		case "fig9":
			rows, err := experiments.Fig9()
			if err != nil {
				return err
			}
			experiments.Print(os.Stdout, "Fig. 9: training performance comparison", rows)
		case "fig10":
			rows, err := experiments.Fig10()
			if err != nil {
				return err
			}
			experiments.PrintBreakdown(os.Stdout, rows)
		case "ablations":
			if err := experiments.Ablations(os.Stdout); err != nil {
				return err
			}
		case "table1":
			rows, err := experiments.Table1()
			if err != nil {
				return err
			}
			experiments.Print(os.Stdout, "Table 1: training performance", rows)
		case "validate":
			v, err := validateCollective()
			if err != nil {
				return err
			}
			fmt.Printf("Collective validation: executed bucketed ring AllReduce vs analytic dpSync\n")
			fmt.Printf("  %d ranks × %d elems, calibrated link %.2f GB/s %.1fµs/hop\n", v.Ranks, v.Elems, v.LinkGBs, v.LinkLatencyUs)
			fmt.Printf("  executed %.3fms, analytic %.3fms, ratio %.2f\n", v.ExecutedMs, v.AnalyticMs, v.Ratio)
		case "wire":
			w, err := measureWire()
			if err != nil {
				return err
			}
			fmt.Printf("Wire throughput: 4 MiB tensor ping-pongs, payload GB/s both directions\n")
			fmt.Printf("  in-process chan transport: %6.2f GB/s\n", w.ChanTransportGBs)
			fmt.Printf("  TCP local mesh (1 proc):   %6.2f GB/s\n", w.TCPLocalGBs)
			if w.MultiProcErr != "" {
				fmt.Printf("  TCP across 2 processes:    unavailable (%s)\n", w.MultiProcErr)
			} else {
				fmt.Printf("  TCP across 2 processes:    %6.2f GB/s\n", w.TCPMultiProcGBs)
			}
			fmt.Printf("Gradient wire encodings: %d-rank ring AllReduce, %d elems/rank\n", wireTierRanks, wireTierElems)
			for _, t := range w.DTypeTiers {
				fmt.Printf("  %-6s %9d B/step  %6.2f bus GB/s\n", t.DType, t.BytesPerStep, t.BusGBs)
			}
		case "shaped":
			v, err := validateShaped(dist.ShapeOpts{
				Latency: 2 * time.Millisecond, Jitter: 500 * time.Microsecond,
				BandwidthGBs: 1, Seed: 7,
			})
			if err != nil {
				return err
			}
			fmt.Printf("Shaped-network validation: executed bucketed ring AllReduce vs analytic, links shaped %s\n", v.Shape)
			fmt.Printf("  %d ranks × %d elems, calibrated link %.2f GB/s %.0fµs/hop\n", v.Ranks, v.Elems, v.LinkGBs, v.LinkLatencyUs)
			fmt.Printf("  executed %.3fms, analytic %.3fms, ratio %.2f (band [%.1f, %.1f])\n",
				v.ExecutedMs, v.AnalyticMs, v.Ratio, shapedRatioLo, shapedRatioHi)
			if v.Ratio < shapedRatioLo || v.Ratio > shapedRatioHi {
				return fmt.Errorf("shaped validation: executed/analytic ratio %.2f outside [%.1f, %.1f] — the calibration model no longer tracks a degraded network", v.Ratio, shapedRatioLo, shapedRatioHi)
			}
		case "sharded":
			sh, err := measureSharded()
			if err != nil {
				return err
			}
			fmt.Printf("ZeRO-sharded epilogue: %d ranks × %d elems over TCP endpoints\n", sh.Ranks, sh.Elems)
			fmt.Printf("  optimizer state per rank: dense %d B, sharded %d B (%.1f%%)\n",
				sh.DenseOptStateBytes, sh.ShardedOptStateBytes, sh.ShardedOptStatePct)
			fmt.Printf("  dense AllReduce:          %6.2f bus GB/s\n", sh.DenseAllReduceBusGBs)
			fmt.Printf("  ReduceScatterV+AllGatherV:%6.2f bus GB/s (same wire volume)\n", sh.ExchangeBusGBs)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig6", "fig7", "fig8", "fig9", "fig10", "table1", "ablations", "validate", "wire", "sharded", "shaped"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
			os.Exit(1)
		}
	}
}
