package dist

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/ir"
	"repro/internal/runtime"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// §4.2 — initiating a send never blocks the sender — has one home across
// processes: the per-peer sender worker behind Transport.Send. An actor's
// OpSend is that Send and nothing else, so these two tests hold the guarantee
// for the pipeline as well.

// TestSendNeverWaitsForAWedgedPeer: peer 1 accepts the connection and reads
// nothing. 64 MiB of Sends to it each return at once, the backlog shows in
// QueueDepth, traffic to peer 2 is not held behind it, and Abort retires the
// wedged worker. It runs at one P too, where Send yields to a sender worker
// that is blocked in a write: the yield must not turn into that wait.
func TestSendNeverWaitsForAWedgedPeer(t *testing.T) {
	for _, procs := range []int{1, 0} { // 0 leaves GOMAXPROCS as it is
		name := "GOMAXPROCS=default"
		if procs > 0 {
			name = fmt.Sprintf("GOMAXPROCS=%d", procs)
		}
		t.Run(name, func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			sendToAWedgedPeer(t)
		})
	}
}

func sendToAWedgedPeer(t *testing.T) {
	before := goruntime.NumGoroutine()
	wedged := rawPeer(t)
	tr, err := NewTransport(0, Options{RecvTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Abort()
	peer2, err := NewTransport(2, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer peer2.Close()
	book := map[int]string{0: tr.Addr(), 1: wedged.Addr().String(), 2: peer2.Addr()}
	tr.Connect(book)
	peer2.Connect(book)

	const sends = 64
	mib := tensor.New(1 << 17)
	var slowest time.Duration
	for i := 0; i < sends; i++ {
		start := time.Now()
		tr.Send(0, 1, 100+i, mib)
		if d := time.Since(start); d > slowest {
			slowest = d
		}
	}
	conn, err := wedged.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A Send that waited for this peer would wait for good. Encoding a MiB is
	// well under a millisecond; under -race on two shared vCPUs, with 64 MiB
	// of frames live, a garbage collection has stretched one to 56 ms.
	if slowest > 500*time.Millisecond {
		t.Fatalf("a Send to a peer that reads nothing took %v", slowest)
	}
	if depth := tr.QueueDepth(); depth < sends/2 {
		t.Fatalf("QueueDepth() = %d with %d MiB sent into a socket nobody reads", depth, sends)
	}

	tr.Send(0, 2, 7, tensor.Scalar(42))
	got, err := peer2.Recv(2, 0, 7)
	if err != nil {
		t.Fatalf("a send to peer 2 waited behind the wedged peer 1: %v", err)
	}
	if got.Data()[0] != 42 {
		t.Fatalf("payload corrupted: %v", got)
	}
	if tr.QueueDepth() == 0 {
		t.Fatal("peer 1 drained; the test no longer wedges the worker")
	}

	tr.Abort()
	peer2.Close()
	conn.Close()
	if after := goroutinesBackTo(before); after > before {
		t.Fatalf("%d goroutines before, %d after Abort: the wedged sender worker leaked", before, after)
	}
}

// TestActorSendsDoNotWaitForALateStage: a 3-stage GPipe step over real
// sockets whose last stage starts 200 ms late. The stages before it run their
// forwards and queue every activation meanwhile — an OpSend has no queue of
// the actor's own in front of the transport's — and the step's losses are
// bit-equal to the in-process cluster's.
func TestActorSendsDoNotWaitForALateStage(t *testing.T) {
	const stages, numMB, mbRows, width = 3, 6, 4, 8
	g, err := trace.Trace("mlp", func(b *trace.Builder) []*ir.Value {
		h, y := b.Input("x", mbRows, width), b.Input("y", mbRows, width)
		for i := 0; i < stages; i++ {
			h = b.ReLU(b.MatMul(h, b.Input("w", width, width)))
			if i+1 < stages {
				h = b.PipelineYield(h)
			}
		}
		return []*ir.Value{b.CrossEntropy(h, y)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = autodiff.ValueAndGrad(g, g.Inputs[2:]); err != nil {
		t.Fatal(err)
	}
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, schedule.GPipe(stages, numMB), taskgraph.Options{BatchInputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	inputs := []*tensor.Tensor{rng.Normal(1, numMB*mbRows, width), rng.OneHotBatch(numMB*mbRows, width)}
	for i := 0; i < stages; i++ {
		inputs = append(inputs, rng.Normal(0.5, width, width))
	}

	local, err := runtime.NewCluster(stages).Load(prog, runtime.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.Step(inputs)
	if err != nil {
		t.Fatal(err)
	}

	mesh, err := NewLocalMesh(stages, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	exe, err := runtime.NewClusterWithTransport(stages, mesh).Load(prog, runtime.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, stages)
	for a := 0; a < stages; a++ {
		go func(a int) {
			if a == stages-1 {
				time.Sleep(200 * time.Millisecond)
			}
			errs <- exe.StepActor(a, inputs)
		}(a)
	}
	for a := 0; a < stages; a++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res := &runtime.ActorResults{}
	if err := exe.TakeActorResultsInto(stages-1, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != numMB {
		t.Fatalf("the last stage holds %d losses, want %d", len(res.Losses), numMB)
	}
	for i, l := range res.Losses {
		got, ref := l.Data()[0], want[res.LossMB[i]].Data()[0]
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("microbatch %d: loss %v over sockets, %v in process", res.LossMB[i], got, ref)
		}
	}
}
