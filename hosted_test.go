package jaxpp

import (
	"strings"
	"testing"
)

// hostedSpec compiles a 2-stage pipeline onto a 2-actor mesh, hosting only
// the listed actors.
func hostedSpec(host []int) CompileSpec {
	return CompileSpec{
		Loss: func(b *Builder, params, mb []*Value) *Value {
			h := b.ReLU(b.MatMul(mb[0], params[0]))
			h = b.PipelineYield(h)
			return b.CrossEntropy(b.MatMul(h, params[1]), mb[1])
		},
		ParamShapes: [][]int{{8, 8}, {8, 8}},
		BatchShapes: [][]int{{4, 8}, {4, 8}},
		Schedule:    OneFOneB(2, 4),
		HostActors:  host,
	}
}

// TestHostedActorFilterRefusesUnhostedStep pins the filter's contract: a
// rank that materialized only its own actor must refuse — with a clear
// error, not a hang or a panic — to step an actor it never loaded, and the
// full-cluster Step path must refuse entirely.
func TestHostedActorFilterRefusesUnhostedStep(t *testing.T) {
	step, err := NewRemoteMesh(2).Compile(hostedSpec([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer step.Close()
	if !step.exe.Hosts(0) || step.exe.Hosts(1) {
		t.Fatalf("hosted filter: Hosts(0)=%v Hosts(1)=%v, want true/false", step.exe.Hosts(0), step.exe.Hosts(1))
	}

	rng := NewRNG(1)
	params := []*Tensor{rng.Xavier(8, 8), rng.Xavier(8, 8)}
	batch := []*Tensor{rng.Normal(1, 16, 8), rng.OneHotBatch(16, 8)}

	if err := step.StepActor(1, params, batch); err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("StepActor(1) on a rank hosting only actor 0: err = %v, want a hosted-actor refusal", err)
	}
	if _, _, err := step.Step(params, batch); err == nil || !strings.Contains(err.Error(), "hosted-actor filter") {
		t.Fatalf("full Step on a filtered load: err = %v, want a hosted-actor refusal", err)
	}
	if err := step.TakeActorResultsInto(1, &ActorResults{}); err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("TakeActorResultsInto(1): err = %v, want a hosted-actor refusal", err)
	}
}

// TestHostedActorFilterRejectsOutOfRange pins Load's validation of the
// filter itself.
func TestHostedActorFilterRejectsOutOfRange(t *testing.T) {
	if _, err := NewRemoteMesh(2).Compile(hostedSpec([]int{2})); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("HostActors [2] on a 2-actor cluster: err = %v, want out-of-range", err)
	}
}
