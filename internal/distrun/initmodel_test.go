package distrun

import (
	"math"
	"testing"
)

// TestRankDrawsWhatItsActorReads holds a rank's initialization, which draws
// only what its actor reads, to InitModel's: on the four benchmark workloads,
// every rank's copy of every parameter and batch input the program places on
// its actor is bit-equal to InitModel's, and every tensor it skipped still has
// InitModel's shape.
func TestRankDrawsWhatItsActorReads(t *testing.T) {
	for _, spec := range []JobSpec{
		{Stages: 4, NumMB: 8, MBRows: 128, Width: 256, Schedule: "1f1b", LR: 0.05},
		{Stages: 4, NumMB: 16, MBRows: 8, Width: 32, Schedule: "1f1b", LR: 0.02},
		{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.01},
		{Stages: 2, DataParallel: 2, NumMB: 2, MBRows: 4, Width: 512, Schedule: "1f1b", LR: 0.002, Momentum: 0.9, WireDType: "int8q"},
	} {
		params, batch := InitModel(spec)
		want := append(batch, params...) // the program's input order
		ts, err := Compile(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog := ts.Program()
		readBy := func(input, actor int) bool {
			if p := prog.Params[input]; p != nil && p.Actor == actor {
				return true
			}
			for _, pl := range prog.Batch[input] {
				if pl.Actor == actor {
					return true
				}
			}
			return false
		}
		for rank := 1; rank < spec.World(); rank++ {
			actor := rank % spec.Stages
			params, batch := initModel(spec, actor)
			got := append(batch, params...)
			reads := 0
			for i, w := range want {
				if !got[i].HasShape(w.Shape()) {
					t.Fatalf("%dx%d stages, rank %d: input %d has shape %v, want %v", spec.Replicas(), spec.Stages, rank, i, got[i].Shape(), w.Shape())
				}
				if !readBy(i, actor) {
					continue
				}
				reads++
				for j, v := range w.Data() {
					if g := got[i].Data()[j]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("%dx%d stages, rank %d: input %d element %d is %v, InitModel draws %v", spec.Replicas(), spec.Stages, rank, i, j, g, v)
					}
				}
			}
			if reads == 0 {
				t.Fatalf("%dx%d stages, rank %d: the program places nothing on actor %d", spec.Replicas(), spec.Stages, rank, actor)
			}
		}
	}
}
