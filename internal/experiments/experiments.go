// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulator: Fig. 6 (circular repeat sweep), Fig. 7
// (microbatch-count sweep), Fig. 8 (weak scaling vs FSDP), Fig. 9 / Table 1
// (cross-system comparison), and Fig. 10 (step-time breakdown). Each
// function returns structured rows (with the paper's reported numbers
// alongside) and can print itself in the paper's format.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Row is one measurement with the paper's reference value attached.
type Row struct {
	Figure        string
	System        string
	Label         string
	GBS           int
	GA            int
	GPUs          int
	PP, TP        int
	DP            int
	MBS           int
	CR            int
	Result        *sim.Result
	PaperStepTime float64 // seconds; 0 if the paper reports only TFLOPS
	PaperTFLOPS   float64 // TFLOPS/device; 0 if unreported
}

// gpt3Config builds a JaxPP GPT-3 config.
func gpt3Config(gpus, tp, pp, dp, gbs, mbs, cr int) sim.Config {
	return sim.Config{
		Model:          model.GPT3_175B(),
		Cluster:        perf.EOS(),
		GPUs:           gpus,
		TP:             tp,
		PP:             pp,
		DP:             dp,
		GlobalBatch:    gbs,
		Microbatch:     mbs,
		CircularRepeat: cr,
	}
}

func llamaConfig(gpus, tp, pp, dp, gbs, mbs, cr int) sim.Config {
	c := gpt3Config(gpus, tp, pp, dp, gbs, mbs, cr)
	c.Model = model.Llama2_70B()
	return c
}

// Fig6 sweeps the circular repeat size for GPT-3 175B on 64 GPUs (TP8×PP8,
// global batch 128) across microbatch-size/accumulation pairs 1-128, 2-64,
// 4-32 — the interleaving/dispatch-overhead tradeoff.
func Fig6() ([]Row, error) {
	var rows []Row
	for _, mbsGA := range [][2]int{{1, 128}, {2, 64}, {4, 32}} {
		mbs, ga := mbsGA[0], mbsGA[1]
		for _, cr := range []int{1, 2, 3, 6, 8, 12} {
			cfg := gpt3Config(64, 8, 8, 1, 128, mbs, cr)
			res, err := baselines.JaxPPSimulate(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig6 mbs=%d cr=%d: %w", mbs, cr, err)
			}
			rows = append(rows, Row{
				Figure: "fig6", System: "JaxPP",
				Label: fmt.Sprintf("MBS-GA %d-%d", mbs, ga),
				GBS:   128, GA: ga, GPUs: 64, PP: 8, TP: 8, DP: 1, MBS: mbs, CR: cr,
				Result: res,
			})
		}
	}
	return rows, nil
}

// Fig7 sweeps the number of microbatches at circular repeat 6 for MBS 1, 2,
// 4 — the utilization tradeoff (§5.1.2). Global batch = DP × MBS × GA.
func Fig7() ([]Row, error) {
	var rows []Row
	for _, mbs := range []int{1, 2, 4} {
		for _, ga := range []int{8, 16, 32, 64, 128, 256, 512} {
			gbs := mbs * ga
			cfg := gpt3Config(64, 8, 8, 1, gbs, mbs, 6)
			res, err := baselines.JaxPPSimulate(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig7 mbs=%d ga=%d: %w", mbs, ga, err)
			}
			rows = append(rows, Row{
				Figure: "fig7", System: "JaxPP",
				Label: fmt.Sprintf("MBS %d", mbs),
				GBS:   gbs, GA: ga, GPUs: 64, PP: 8, TP: 8, DP: 1, MBS: mbs, CR: 6,
				Result: res,
			})
		}
	}
	return rows, nil
}

// Fig8 runs the weak-scaling experiment: GPT-3 175B, global batch 2×GPUs,
// 32 microbatches, circular repeat 6, JaxPP vs JAX FSDP, 64→1024 GPUs.
func Fig8() ([]Row, error) {
	paperJaxPP := map[int]float64{64: 462, 128: 457, 256: 452, 512: 454, 1024: 430}
	paperFSDP := map[int]float64{64: 415, 128: 412, 256: 404, 512: 400, 1024: 390}
	var rows []Row
	for _, gpus := range []int{64, 128, 256, 512, 1024} {
		gbs := 2 * gpus
		dp := gpus / 64
		mbs := gbs / (dp * 32)
		cfg := gpt3Config(gpus, 8, 8, dp, gbs, mbs, 6)
		res, err := baselines.JaxPPSimulate(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig8 jaxpp %d gpus: %w", gpus, err)
		}
		rows = append(rows, Row{
			Figure: "fig8", System: "JaxPP", Label: "JaxPP",
			GBS: gbs, GA: 32, GPUs: gpus, PP: 8, TP: 8, DP: dp, MBS: mbs, CR: 6,
			Result: res, PaperTFLOPS: paperJaxPP[gpus],
		})
		fres, err := baselines.FSDPSimulate(baselines.FSDPConfig{
			Model: model.GPT3_175B(), Cluster: perf.EOS(), GPUs: gpus, GlobalBatch: gbs,
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 fsdp %d gpus: %w", gpus, err)
		}
		rows = append(rows, Row{
			Figure: "fig8", System: "JAX FSDP", Label: "JAX FSDP",
			GBS: gbs, GA: 1, GPUs: gpus, PP: 1, TP: 1, DP: gpus, MBS: gbs / gpus,
			Result: fres, PaperTFLOPS: paperFSDP[gpus],
		})
	}
	return rows, nil
}

// Table1 reproduces every row of Table 1 (which also contains the Fig. 9
// bars): GPT-3 175B and Llama2 70B across JaxPP, JAX FSDP, JAX SPMD PP, and
// NeMo.
func Table1() ([]Row, error) {
	var rows []Row
	add := func(r Row, err error) error {
		if err != nil {
			return err
		}
		rows = append(rows, r)
		return nil
	}

	// JaxPP GPT-3 weak-scaling rows.
	type jrow struct {
		gbs, gpus, dp int
		stepS, tflops float64
	}
	for _, jr := range []jrow{
		{128, 64, 1, 9.53, 462},
		{256, 128, 2, 9.64, 457},
		{512, 256, 4, 9.74, 452},
		{1024, 512, 8, 9.71, 454},
		{2048, 1024, 16, 10.26, 430},
	} {
		mbs := jr.gbs / (jr.dp * 32)
		cfg := gpt3Config(jr.gpus, 8, 8, jr.dp, jr.gbs, mbs, 6)
		res, err := baselines.JaxPPSimulate(cfg)
		if err := add(Row{
			Figure: "table1", System: "JaxPP", Label: "GPT-3 175B",
			GBS: jr.gbs, GA: 32, GPUs: jr.gpus, PP: 8, TP: 8, DP: jr.dp, MBS: mbs, CR: 6,
			Result: res, PaperStepTime: jr.stepS, PaperTFLOPS: jr.tflops,
		}, err); err != nil {
			return nil, err
		}
	}

	// JAX FSDP GPT-3 rows.
	for _, fr := range []jrow{
		{128, 64, 64, 10.63, 415},
		{256, 128, 128, 10.70, 412},
		{512, 256, 128, 10.91, 404},
		{1024, 512, 128, 11.01, 400},
		{2048, 1024, 128, 11.30, 390},
	} {
		res, err := baselines.FSDPSimulate(baselines.FSDPConfig{
			Model: model.GPT3_175B(), Cluster: perf.EOS(), GPUs: fr.gpus, GlobalBatch: fr.gbs,
			FSDPDegree: fr.dp,
		})
		if err := add(Row{
			Figure: "table1", System: "JAX FSDP", Label: "GPT-3 175B",
			GBS: fr.gbs, GA: 1, GPUs: fr.gpus, PP: 1, TP: 1, DP: fr.gpus / fr.dp,
			MBS: fr.gbs / fr.gpus, Result: res, PaperStepTime: fr.stepS, PaperTFLOPS: fr.tflops,
		}, err); err != nil {
			return nil, err
		}
	}

	// JAX SPMD PP GPT-3 (GBS 256, 128 GPUs, PP16 TP4 DP2, GA 128).
	{
		cfg := gpt3Config(128, 4, 16, 2, 256, 1, 1)
		res, err := baselines.SPMDPPSimulate(cfg)
		if err := add(Row{
			Figure: "table1", System: "JAX SPMD PP", Label: "GPT-3 175B",
			GBS: 256, GA: 128, GPUs: 128, PP: 16, TP: 4, DP: 2, MBS: 1, CR: 1,
			Result: res, PaperStepTime: 13.96, PaperTFLOPS: 316,
		}, err); err != nil {
			return nil, err
		}
	}

	// NeMo GPT-3 (GBS 256, 128 GPUs, PP8 TP4 DP4, GA 64).
	{
		cfg := gpt3Config(128, 4, 8, 4, 256, 1, 6)
		res, err := baselines.NeMoSimulate(cfg)
		if err := add(Row{
			Figure: "table1", System: "NeMo", Label: "GPT-3 175B",
			GBS: 256, GA: 64, GPUs: 128, PP: 8, TP: 4, DP: 4, MBS: 1, CR: 6,
			Result: res, PaperStepTime: 9.78, PaperTFLOPS: 500,
		}, err); err != nil {
			return nil, err
		}
	}

	// Llama2 70B rows.
	{
		cfg := llamaConfig(64, 8, 4, 2, 128, 4, 1)
		res, err := baselines.JaxPPSimulate(cfg)
		if err := add(Row{
			Figure: "table1", System: "JaxPP", Label: "Llama2 70B",
			GBS: 128, GA: 16, GPUs: 64, PP: 4, TP: 8, DP: 2, MBS: 4, CR: 1,
			Result: res, PaperStepTime: 8.42, PaperTFLOPS: 432,
		}, err); err != nil {
			return nil, err
		}
	}
	{
		res, err := baselines.FSDPSimulate(baselines.FSDPConfig{
			Model: model.Llama2_70B(), Cluster: perf.EOS(), GPUs: 64, GlobalBatch: 128, FSDPDegree: 64,
		})
		if err := add(Row{
			Figure: "table1", System: "JAX FSDP", Label: "Llama2 70B",
			GBS: 128, GA: 1, GPUs: 64, PP: 1, TP: 1, DP: 1, MBS: 2,
			Result: res, PaperStepTime: 8.44, PaperTFLOPS: 431,
		}, err); err != nil {
			return nil, err
		}
	}
	{
		cfg := llamaConfig(64, 4, 4, 4, 128, 1, 5)
		res, err := baselines.NeMoSimulate(cfg)
		if err := add(Row{
			Figure: "table1", System: "NeMo", Label: "Llama2 70B",
			GBS: 128, GA: 32, GPUs: 64, PP: 4, TP: 4, DP: 4, MBS: 1, CR: 5,
			Result: res, PaperStepTime: 7.02, PaperTFLOPS: 519,
		}, err); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig9 extracts the cross-system comparison bars from the Table 1 configs.
func Fig9() ([]Row, error) {
	rows, err := Table1()
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, r := range rows {
		keep := (r.Label == "GPT-3 175B" && r.GBS == 256) || r.Label == "Llama2 70B"
		if keep {
			r.Figure = "fig9"
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig10 produces the step-time breakdown of JAX SPMD PP vs JaxPP on GPT-3
// 175B (rematerialization and synchronous-vs-overlapped P2P account for the
// gap).
func Fig10() ([]Row, error) {
	spmd, err := baselines.SPMDPPSimulate(gpt3Config(128, 4, 16, 2, 256, 1, 1))
	if err != nil {
		return nil, err
	}
	jaxpp, err := baselines.JaxPPSimulate(gpt3Config(128, 8, 8, 2, 256, 4, 6))
	if err != nil {
		return nil, err
	}
	return []Row{
		{Figure: "fig10", System: "JAX SPMD PP", Label: "GPT-3 175B", GBS: 256, GPUs: 128,
			PP: 16, TP: 4, DP: 2, GA: 128, MBS: 1, Result: spmd, PaperStepTime: 13.96},
		{Figure: "fig10", System: "JaxPP", Label: "GPT-3 175B", GBS: 256, GPUs: 128,
			PP: 8, TP: 8, DP: 2, GA: 32, MBS: 4, CR: 6, Result: jaxpp, PaperStepTime: 9.64},
	}, nil
}

// Print renders rows in the paper's tabular style, with paper references.
func Print(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s %-12s %-14s %5s %4s %5s %3s %3s %4s %4s %3s  %10s %9s | %9s %9s\n",
		"System", "Model", "Label", "GBS", "GA", "GPUs", "PP", "TP", "DP", "MBS", "CR",
		"Step(s)", "TFLOPS", "PaperStep", "PaperTF")
	for _, r := range rows {
		ps, pt := "-", "-"
		if r.PaperStepTime > 0 {
			ps = fmt.Sprintf("%9.2f", r.PaperStepTime)
		}
		if r.PaperTFLOPS > 0 {
			pt = fmt.Sprintf("%9.0f", r.PaperTFLOPS)
		}
		fmt.Fprintf(w, "%-12s %-12s %-14s %5d %4d %5d %3d %3d %4d %4d %3d  %10.2f %9.0f | %9s %9s\n",
			r.System, r.Figure, r.Label, r.GBS, r.GA, r.GPUs, r.PP, r.TP, r.DP, r.MBS, r.CR,
			r.Result.StepTime, r.Result.TFLOPSPerDevice, ps, pt)
	}
}

// PrintBreakdown renders Fig. 10 style bars.
func PrintBreakdown(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "GPT-3 175B training step time breakdown (Fig. 10)\n")
	for _, r := range rows {
		b := r.Result.Breakdown
		fmt.Fprintf(w, "%-12s step=%6.2fs  compute+collectives=%6.2fs  remat=%6.2fs  p2p=%6.2fs  bubble=%6.2fs  dp_sync=%6.2fs  dispatch=%6.3fs  (paper step %.2fs)\n",
			r.System, r.Result.StepTime, b.ComputeCollectives, b.Rematerialization, b.P2P, b.Bubble, b.DPGradSync, b.Dispatch, r.PaperStepTime)
	}
}
