// Transformer example: a small GPT-style stack of residual FFN blocks with a
// tied input/output projection, pipelined over 2 actors with Interleaved
// 1F1B (circular repeat 2 → 4 stages), exercising loop commuting (§3.4) for
// the tied weight's gradient.
package main

import (
	"fmt"
	"log"

	jaxpp "repro"
)

const (
	hidden = 24
	vocab  = 24 // tied projection requires vocab == hidden here
	mbRows = 6
	numMB  = 8
	actors = 2
	repeat = 2 // circular repeat: 4 stages on 2 actors
	steps  = 15
	lr     = 0.05
)

func block(b *jaxpp.Builder, h *jaxpp.Value, w1, w2 *jaxpp.Value) *jaxpp.Value {
	// Pre-norm-free residual FFN block: h + W2·relu(W1·h).
	ff := b.MatMul(b.ReLU(b.MatMul(h, w1)), w2)
	return b.Add(h, ff)
}

func main() {
	mesh := jaxpp.NewRemoteMesh(actors)
	sched, err := jaxpp.Interleaved1F1B(actors, numMB, repeat)
	if err != nil {
		log.Fatal(err)
	}

	// Parameters: tied embedding E (used in stage 0 and, transposed, in the
	// last stage) plus per-stage FFN weights.
	paramShapes := [][]int{{vocab, hidden}} // E
	numStages := actors * repeat
	for s := 0; s < numStages; s++ {
		paramShapes = append(paramShapes, []int{hidden, 2 * hidden}, []int{2 * hidden, hidden})
	}

	step, err := mesh.Compile(jaxpp.CompileSpec{
		Loss: func(b *jaxpp.Builder, params, mb []*jaxpp.Value) *jaxpp.Value {
			x, y := mb[0], mb[1]
			e := params[0]
			h := b.MatMul(x, e) // "embedding"
			for s := 0; s < numStages; s++ {
				h = block(b, h, params[1+2*s], params[2+2*s])
				if s+1 < numStages {
					h = b.PipelineYield(h)
				}
			}
			logits := b.MatMul(h, b.Transpose(e)) // tied output projection
			return b.CrossEntropy(logits, y)
		},
		ParamShapes:             paramShapes,
		BatchShapes:             [][]int{{mbRows, vocab}, {mbRows, vocab}},
		Schedule:                sched,
		CommuteGradAccumulation: true, // §3.4: one transfer per step, not per microbatch
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled tied-embedding transformer: %d stages on %d actors (repeat %d)\n",
		step.NumStages(), actors, repeat)

	rng := jaxpp.NewRNG(7)
	params := []*jaxpp.Tensor{rng.Xavier(vocab, hidden)}
	for s := 0; s < numStages; s++ {
		params = append(params, rng.Xavier(hidden, 2*hidden), rng.Xavier(2*hidden, hidden))
	}
	x := rng.OneHotBatch(numMB*mbRows, vocab) // one-hot "token" inputs
	y := rng.OneHotBatch(numMB*mbRows, vocab)

	var first, last float64
	for s := 0; s < steps; s++ {
		losses, grads, err := step.Step(params, []*jaxpp.Tensor{x, y})
		if err != nil {
			log.Fatal(err)
		}
		total := 0.0
		for _, l := range losses {
			total += l.Data()[0]
		}
		mean := total / float64(numMB)
		if s == 0 {
			first = mean
		}
		last = mean
		if s%5 == 0 || s == steps-1 {
			fmt.Printf("step %2d  loss %.4f\n", s, mean)
		}
		for i := range params {
			d := make([]float64, grads[i].Size())
			for j, g := range grads[i].Data() {
				d[j] = params[i].Data()[j] - lr*g
			}
			shape := params[i].Shape()
			p, err := jaxpp.TensorFromSlice(d, shape...)
			if err != nil {
				log.Fatal(err)
			}
			params[i] = p
		}
	}
	if !(last < first) { // also catches NaN
		log.Fatalf("loss did not improve: %.4f -> %.4f", first, last)
	}
	fmt.Printf("loss improved %.4f -> %.4f with tied weights and loop commuting\n", first, last)
}
