// Command jaxpp-bench regenerates the paper's evaluation (Figs. 6–10,
// Table 1, the ablations) on the simulator and checks the collective cost
// surrogate against execution. Usage:
//
//	jaxpp-bench -exp all|fig6|fig7|fig8|fig9|fig10|table1|ablations|validate|shaped
//
// It measures nothing else: throughput, per-layer costs and their
// dispersion come from bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// experiment is one named block of output. The table below is the only list
// of experiments: the flag help, "all" and dispatch read it.
type experiment struct {
	name string
	run  func(io.Writer) error
}

var table = []experiment{
	{"fig6", figure("Fig. 6: GPT-3 175B, TP8xPP8, 64 GPUs, GBS 128 — circular repeat sweep", experiments.Fig6)},
	{"fig7", figure("Fig. 7: GPT-3 175B, TP8xPP8, CR 6 — microbatch sweep", experiments.Fig7)},
	{"fig8", figure("Fig. 8: weak scaling, GBS = 2x GPUs", experiments.Fig8)},
	{"fig9", figure("Fig. 9: training performance comparison", experiments.Fig9)},
	{"fig10", func(w io.Writer) error {
		rows, err := experiments.Fig10()
		if err != nil {
			return err
		}
		experiments.PrintBreakdown(w, rows)
		return nil
	}},
	{"table1", figure("Table 1: training performance", experiments.Table1)},
	{"ablations", experiments.Ablations},
	{"validate", validateChan},
	{"shaped", validateShaped},
}

// figure prints one simulated figure or table of the paper's evaluation.
func figure(title string, rows func() ([]experiments.Row, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		r, err := rows()
		if err != nil {
			return err
		}
		experiments.Print(w, title, r)
		return nil
	}
}

// usage is the -exp help text, built from the table.
func usage() string {
	names := []string{"all"}
	for _, e := range table {
		names = append(names, e.name)
	}
	return "experiment to run: " + strings.Join(names, "|")
}

// run writes the named experiment's block to w, or every block in table
// order for "all". Each block ends with a blank line.
func run(w io.Writer, name string) error {
	ran := false
	for _, e := range table {
		if name != "all" && name != e.name {
			continue
		}
		if err := e.run(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", usage())
	flag.Parse()
	if err := run(os.Stdout, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "jaxpp-bench:", err)
		os.Exit(1)
	}
}

// validate is the surrogate check (PAPERS.md arXiv 2502.12741: validate the
// cost model against measurement): calibrate a perf.Link through tr, execute
// bucketed ring all-reduces of elems float64 over ranks actors of tr, verify
// the sum exactly — no transport here may alter payload bits — and compare
// the steady-state wall time against PredictBucketedAllReduce under the
// calibrated link, the identical formula the simulator's dpSync term uses.
// It prints the numbers and returns executed/analytic.
func validate(w io.Writer, tr transport.Transport, ranks, elems int) (float64, error) {
	link := collective.Calibrate(tr, 0, 1)
	measured, out, err := collective.MeasureAllReduce(tr, ranks, elems, collective.DefaultBucketBytes)
	if err != nil {
		return 0, err
	}
	// MeasureAllReduce's rank r contributes the constant r+1.
	if got, want := out.Data()[0], float64(ranks*(ranks+1)/2); got != want {
		return 0, fmt.Errorf("all-reduce gave %v, want %v", got, want)
	}
	predicted := collective.PredictBucketedAllReduce(collective.RingLink(link, ranks), []int{elems}, ranks, collective.DefaultBucketBytes)
	ratio := measured.Seconds() / predicted
	fmt.Fprintf(w, "  %d ranks × %d elems, calibrated link %.2f GB/s %.1fµs/hop\n", ranks, elems, link.BwGBs, link.Latency*1e6)
	fmt.Fprintf(w, "  executed %.3fms, analytic %.3fms, ratio %.2f\n", measured.Seconds()*1e3, predicted*1e3, ratio)
	return ratio, nil
}

// validateChan runs the check on the in-process transport, where goroutine
// scheduling rather than a network sets both numbers; the ratio is reported,
// not gated.
func validateChan(w io.Writer) error {
	fmt.Fprintln(w, "Collective validation: executed bucketed ring AllReduce vs analytic dpSync")
	_, err := validate(w, runtime.NewChanTransport(), 4, 1<<19)
	return err
}

// shapedRatioLo/Hi is the accepted executed-vs-analytic band of the shaped
// check: the analytic model is a store-and-forward idealization, so the band
// is generous, but an execution drifting outside it means the calibration
// model stopped tracking degraded networks.
const (
	shapedRatioLo = 0.4
	shapedRatioHi = 2.5
)

// validateShaped runs the check over Unix-domain socket links shaped with
// enough latency that the modeled network, not goroutine scheduling,
// dominates both numbers — which is why the prediction must track execution
// here if the calibration model is to be trusted off localhost. A ratio
// outside the band is an error.
func validateShaped(w io.Writer) error {
	shape := dist.ShapeOpts{Latency: 2 * time.Millisecond, Jitter: 500 * time.Microsecond, BandwidthGBs: 1, Seed: 7}
	const ranks = 4
	m, err := dist.NewLocalMesh(ranks, dist.Options{})
	if err != nil {
		return err
	}
	defer m.Close()
	m.SetShape(shape)
	fmt.Fprintf(w, "Shaped-network validation: executed bucketed ring AllReduce vs analytic, links shaped %s\n", shape)
	ratio, err := validate(w, m, ranks, 1<<18)
	if err != nil {
		return fmt.Errorf("shaped validation: %w", err)
	}
	fmt.Fprintf(w, "  accepted band [%.1f, %.1f]\n", shapedRatioLo, shapedRatioHi)
	if ratio < shapedRatioLo || ratio > shapedRatioHi {
		return fmt.Errorf("shaped validation: executed/analytic ratio %.2f outside [%.1f, %.1f] — the calibration model no longer tracks a degraded network", ratio, shapedRatioLo, shapedRatioHi)
	}
	return nil
}
