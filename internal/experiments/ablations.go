package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/autodiff"
	"repro/internal/ir"
	"repro/internal/runtime"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Ablations runs the design-choice ablations of the paper's §3.4, §4.2 and
// §4.3 on the *real* functional runtime (not the simulator; README's
// "Benchmarks, examples, simulation" section runs it as `-exp ablations`)
// and prints a summary:
//
//  1. buffer deletion (§4.3) on/off → peak object-store bytes,
//  2. loop commuting (§3.4) on/off → sends per step for a tied-weight model,
//  3. communication ordering (§4.2, Fig. 5): naive ordering + synchronous
//     rendezvous sends deadlocks; JaxPP's topological ordering completes.
func Ablations(w io.Writer) error {
	const stages, mbRows, numMB, width = 3, 4, 8, 16

	// Shared tied-weight model: W used at stage 0 and (transposed) at the
	// last stage, V in the middle.
	buildTied := func() (*ir.Graph, error) {
		g, err := trace.Trace("tied", func(b *trace.Builder) []*ir.Value {
			x := b.Input("x", mbRows, width)
			y := b.Input("y", mbRows, width)
			wv := b.Input("w", width, width)
			v := b.Input("v", width, width)
			h := b.ReLU(b.MatMul(x, wv))
			h = b.PipelineYield(h)
			h = b.ReLU(b.MatMul(h, v))
			h = b.PipelineYield(h)
			return []*ir.Value{b.CrossEntropy(b.MatMul(h, b.Transpose(wv)), y)}
		})
		if err != nil {
			return nil, err
		}
		return autodiff.ValueAndGrad(g, g.Inputs[2:])
	}

	makeInputs := func() []*tensor.Tensor {
		rng := tensor.NewRNG(5)
		return []*tensor.Tensor{
			rng.Normal(1, numMB*mbRows, width),
			rng.OneHotBatch(numMB*mbRows, width),
			rng.Normal(0.5, width, width),
			rng.Normal(0.5, width, width),
		}
	}

	run := func(opts taskgraph.Options, splitOpts stage.Options, tr transport.Transport, timeout time.Duration) (peak int64, sends int, completed bool, err error) {
		g, err := buildTied()
		if err != nil {
			return 0, 0, false, err
		}
		split, err := stage.SplitGraph(g, splitOpts)
		if err != nil {
			return 0, 0, false, err
		}
		opts.BatchInputs = []int{0, 1}
		prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), opts)
		if err != nil {
			return 0, 0, false, err
		}
		var cl *runtime.Cluster
		if tr != nil {
			cl = runtime.NewClusterWithTransport(stages, tr)
		} else {
			cl = runtime.NewCluster(stages)
		}
		exe, err := cl.Load(prog, runtime.LoadOptions{})
		if err != nil {
			return 0, 0, false, err
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := exe.Step(makeInputs())
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				return 0, 0, false, err
			}
		case <-time.After(timeout):
			return 0, 0, false, nil
		}
		for _, st := range exe.StoreStatsAll() {
			if st.PeakBytes > peak {
				peak = st.PeakBytes
			}
		}
		for _, list := range prog.Actors {
			for _, in := range list {
				if in.Kind == taskgraph.OpSend {
					sends++
				}
			}
		}
		return peak, sends, true, nil
	}

	fmt.Fprintln(w, "Ablations (functional runtime, tied-weight model, 1F1B, 3 actors, 8 microbatches)")

	// 1. Buffer deletion.
	pOn, _, _, err := run(taskgraph.Options{}, stage.Options{}, nil, 10*time.Second)
	if err != nil {
		return err
	}
	pOff, _, _, err := run(taskgraph.Options{DisableDeletion: true}, stage.Options{}, nil, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  buffer deletion (§4.3):  on: peak %6.1f KiB   off: peak %6.1f KiB   (%.1f×)\n",
		float64(pOn)/1024, float64(pOff)/1024, float64(pOff)/float64(pOn))

	// 2. Loop commuting.
	_, sOff, _, err := run(taskgraph.Options{}, stage.Options{}, nil, 10*time.Second)
	if err != nil {
		return err
	}
	_, sOn, _, err := run(taskgraph.Options{}, stage.Options{CommuteGradAccumulation: true}, nil, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  loop commuting (§3.4):   on: %d sends/step     off: %d sends/step\n", sOn, sOff)

	// 3. Fig. 5 communication ordering under rendezvous sends.
	_, _, okTopo, err := run(taskgraph.Options{}, stage.Options{},
		runtime.NewRendezvousTransport(), 5*time.Second)
	if err != nil {
		return err
	}
	_, _, okNaive, err := run(taskgraph.Options{NaiveCommOrdering: true}, stage.Options{},
		runtime.NewRendezvousTransport(), 500*time.Millisecond)
	if err != nil {
		return err
	}
	verdict := func(ok bool) string {
		if ok {
			return "completes"
		}
		return "DEADLOCKS"
	}
	fmt.Fprintf(w, "  comm ordering (§4.2):    topological: %s     naive (Fig. 5): %s\n",
		verdict(okTopo), verdict(okNaive))
	return nil
}
