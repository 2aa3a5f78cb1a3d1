package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/autodiff"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/distrun"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Source P: the probes. Each calls one layer's public functions in isolation,
// from outside, at the shapes of one workload, in a process of its own at
// GOMAXPROCS=1. A probe times calls for Dur, Reps times, and reports the
// median.

// timedProbes is about how many timed loops probeMain runs, each Reps times
// for Dur: what the probe child's deadline is sized from.
const timedProbes = 15

type probeConfig struct {
	Dur    time.Duration
	Reps   int
	Seed   uint64
	TmpDir string // the checkpoint probe writes here
}

// perCall returns the seconds one call of f takes: one warm-up call that
// fills pools and caches, then calls in batches of at least a millisecond, so
// that reading the clock is no part of the result, until dur has passed.
func perCall(dur time.Duration, f func()) float64 {
	f()
	batch, calls := 1, 0
	start := time.Now()
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		now := time.Now()
		if now.Sub(start) >= dur {
			return now.Sub(start).Seconds() / float64(calls)
		}
		if now.Sub(t0) < time.Millisecond {
			batch *= 2
		}
	}
}

// prober runs probes and keeps the first error any of them hit.
type prober struct {
	probeConfig
	mu  sync.Mutex // the collective probes fail from four goroutines
	err error
}

func (p *prober) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && p.err == nil {
		p.err = err
	}
}

// seconds is the median over Reps of perCall(Dur, f).
func (p *prober) seconds(f func()) float64 {
	xs := make([]float64, p.Reps)
	for i := range xs {
		xs[i] = perCall(p.Dur, f)
	}
	return median(xs)
}

// gradGroup is the group the collective probes exchange gradients on. As in
// distrun, only its tag window carries the lossy wire dtype; group 0 stays
// lossless.
const gradGroup = 1

func probeMain(name string, pc probeConfig) (map[string]float64, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	spec := w.Spec
	spec.Seed = pc.Seed
	dt, err := dist.ParseDType(spec.WireDType)
	if err != nil {
		return nil, err
	}
	p := &prober{probeConfig: pc}
	m := map[string]float64{}
	rng := tensor.NewRNG(pc.Seed)
	rows, width, elems := spec.MBRows, spec.Width, w.gradElems()

	// tensor: the matmul of one microbatch through one stage, and an
	// elementwise add over one parameter matrix.
	x, wt, h := rng.Normal(1, rows, width), rng.Xavier(width, width), tensor.New(rows, width)
	sec := p.seconds(func() { tensor.MatMulInto(h, x, wt) })
	m["tensor.matmul_gflops"] = 2 * float64(rows*width*width) / sec / 1e9
	a, b, c := rng.Normal(1, width, width), rng.Normal(1, width, width), tensor.New(width, width)
	sec = p.seconds(func() { tensor.AddInto(c, a, b) })
	m["tensor.add_gbs"] = 3 * 8 * float64(width*width) / sec / 1e9

	// interp: the compiled value-and-grad program of one MLP stage against
	// the three matmuls it contains (forward, dW, dx) issued directly.
	y := rng.OneHotBatch(rows, width)
	var wrt []*ir.Value
	g, err := trace.Trace("bench-stage", func(tb *trace.Builder) []*ir.Value {
		xv, yv, wv := tb.Input("x", rows, width), tb.Input("y", rows, width), tb.Input("w", width, width)
		wrt = []*ir.Value{xv, wv}
		return []*ir.Value{tb.CrossEntropy(tb.ReLU(tb.MatMul(xv, wv)), yv)}
	})
	if err != nil {
		return nil, err
	}
	gg, err := autodiff.ValueAndGrad(g, wrt)
	if err != nil {
		return nil, err
	}
	prog, err := interp.NewProgram(gg)
	if err != nil {
		return nil, err
	}
	inputs := []*tensor.Tensor{x, y, wt}
	outs := make([]*tensor.Tensor, prog.NumOutputs())
	run := p.seconds(func() {
		p.fail(prog.RunInto(outs, inputs))
		for _, o := range outs {
			tensor.Recycle(o)
		}
	})
	// The direct calls get the cotangent the program sees, ReLU mask and all:
	// the kernel skips zero rows of its left operand.
	tensor.MatMulInto(h, x, wt)
	ct, mask := tensor.New(rows, width), tensor.New(rows, width)
	tensor.ReLUMaskInto(mask, h)
	tensor.ReLUInto(h, h)
	tensor.CrossEntropyGradInto(ct, h, y)
	tensor.MulInto(ct, ct, mask)
	xT, wT := tensor.Transpose(x), tensor.Transpose(wt)
	dw, dx := tensor.New(width, width), tensor.New(rows, width)
	direct := p.seconds(func() {
		tensor.MatMulInto(h, x, wt)
		tensor.MatMulInto(dw, xT, ct)
		tensor.MatMulInto(dx, ct, wT)
	})
	m["interp.run_us"] = run * 1e6
	m["interp.overhead_pct"] = (run - direct) / run * 100

	// dist codec at the workload's wire dtype and ring-chunk size. WriteFrame
	// to io.Discard is EncodeFrame plus the return of the staging buffer to
	// its pool, as on the send path; GB/s count the float64 source bytes.
	chunk := elems / world
	data := rng.Normal(0.01, chunk)
	hdr := dist.Header{Kind: dist.KindData, From: 0, To: 1, Tag: 1, DType: dt, Shape: []int{chunk}}
	sec = p.seconds(func() { p.fail(dist.WriteFrame(io.Discard, &hdr, data.Data(), false)) })
	m["dist.encode_gbs"] = 8 * float64(chunk) / sec / 1e9
	frame := bytes.Clone(dist.EncodeFrame(&hdr, data.Data(), false))
	rd := bytes.NewReader(nil)
	dec := dist.NewDecoder(rd)
	sec = p.seconds(func() {
		rd.Reset(frame)
		_, t, err := dec.ReadFrame()
		p.fail(err)
		tensor.Recycle(t)
	})
	m["dist.decode_gbs"] = 8 * float64(chunk) / sec / 1e9

	p.linkProbes(m, dt, data)

	// dist mailbox: Put to sink, per item.
	const items = 1024
	drained := make(chan struct{}, 1)
	mb := dist.NewMailbox(0, func(i int) {
		if i == items-1 {
			drained <- struct{}{}
		}
	})
	sec = p.seconds(func() {
		for i := 0; i < items; i++ {
			mb.Put(i)
		}
		<-drained
	})
	mb.Stop()
	m["dist.mailbox_ns"] = sec / items * 1e9

	if err := p.collectiveProbes(m, spec, elems, dt, rng); err != nil {
		return nil, err
	}
	m["collective.ring_efficiency"] = m["collective.allreduce_busgbs"] / m["dist.link_gbs"]

	// model: the update kernel the workload's optimizer runs.
	pv, gv, vv, dv := rng.Normal(1, elems).Data(), rng.Normal(0.01, elems).Data(), make([]float64, elems), make([]float64, elems)
	if spec.Momentum != 0 {
		sec = p.seconds(func() { model.MomentumRange(dv, pv, gv, vv, spec.LR, spec.Momentum) })
		m["model.update_gbs"] = 5 * 8 * float64(elems) / sec / 1e9
	} else {
		sec = p.seconds(func() { model.SGDRange(dv, pv, gv, spec.LR) })
		m["model.update_gbs"] = 3 * 8 * float64(elems) / sec / 1e9
	}

	// ckpt: one rank writing all the workload's parameters, fsync included.
	params, batch := distrun.InitModel(spec)
	owned := make([]int, len(params))
	for i := range owned {
		owned[i] = i
	}
	sec = p.seconds(func() {
		p.fail(ckpt.WriteShard(pc.TmpDir, 1, 0, params, owned))
		p.fail(ckpt.WriteManifest(pc.TmpDir, ckpt.NewManifest(1, 1, spec.Stages, spec.Width, len(params), spec.Momentum)))
	})
	m["ckpt.save_ms"] = sec * 1e3

	// distrun: compile on a fresh in-process cluster (Close is not timed), and
	// the object-store peak after two steps.
	compile := make([]float64, 0, pc.Reps)
	for len(compile) < pc.Reps {
		var spent time.Duration
		n := 0
		for spent < pc.Dur {
			t0 := time.Now()
			ts, err := distrun.Compile(spec, nil)
			spent += time.Since(t0)
			if err != nil {
				return nil, err
			}
			ts.Close()
			n++
		}
		compile = append(compile, spent.Seconds()/float64(n))
	}
	m["distrun.compile_ms"] = median(compile) * 1e3
	ts, err := distrun.Compile(spec, nil)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := ts.Step(params, batch); err != nil {
			return nil, err
		}
	}
	var peak int64
	for _, st := range ts.MemoryStats() {
		peak = max(peak, st.PeakBytes)
	}
	m["runtime.store_peak_mb"] = float64(peak) / (1 << 20)
	return m, p.err
}

// linkProbes measures one loopback TCP link between two LocalMesh endpoints:
// a one-way stream of chunk-size frames, and a one-element ping-pong.
func (p *prober) linkProbes(m map[string]float64, dt dist.DType, chunk *tensor.Tensor) {
	mesh, err := dist.NewLocalMesh(2, dist.Options{DType: dt})
	if err != nil {
		p.fail(err)
		return
	}
	defer mesh.Close()
	const tagStream, tagPing, tagPong = 1, 2, 3
	const window = 16 // frames in flight per timed call
	recvd := make(chan error, 1)
	sec := p.seconds(func() {
		go func() {
			for i := 0; i < window; i++ {
				t, err := mesh.Recv(1, 0, tagStream)
				if err != nil {
					recvd <- err
					return
				}
				tensor.Recycle(t)
			}
			recvd <- nil
		}()
		for i := 0; i < window; i++ {
			mesh.Send(0, 1, tagStream, chunk)
		}
		p.fail(<-recvd)
	})
	m["dist.link_gbs"] = window * 8 * float64(chunk.Size()) / sec / 1e9

	// The echo side answers one-element pings until a two-element tensor
	// tells it to stop.
	echoDone := make(chan error, 1)
	go func() {
		for {
			t, err := mesh.Recv(1, 0, tagPing)
			if err != nil || t.Size() != 1 {
				echoDone <- err
				return
			}
			mesh.Send(1, 0, tagPong, t)
			tensor.Recycle(t)
		}
	}()
	ping := tensor.Scalar(1)
	sec = p.seconds(func() {
		mesh.Send(0, 1, tagPing, ping)
		t, err := mesh.Recv(0, 1, tagPong)
		p.fail(err)
		tensor.Recycle(t)
	})
	mesh.Send(0, 1, tagPing, tensor.New(2))
	p.fail(<-echoDone)
	m["dist.link_rtt_us"] = sec * 1e6
}

// collectiveProbes runs the workload's collectives on four goroutine ranks
// over a LocalMesh: the dense AllReduce of the gradient tensor list, the
// sharded ReduceScatterV plus AllGatherV over the same elements, and the
// AllGather of the loss shard.
func (p *prober) collectiveProbes(m map[string]float64, spec distrun.JobSpec, elems int, dt dist.DType, rng *tensor.RNG) error {
	mesh, err := dist.NewLocalMesh(world, dist.Options{})
	if err != nil {
		return err
	}
	defer mesh.Close()
	if !dt.Lossless() {
		lo, hi := collective.GroupTagRange(gradGroup)
		mesh.SetLossyTagWindow(lo, hi)
		mesh.SetWireDType(dt)
	}
	ranks := make([]int, world)
	for r := range ranks {
		ranks[r] = r
	}
	comms := make([][2]*collective.Communicator, world) // [rank]{group 0, gradGroup}
	for id := range comms[0] {
		g, err := collective.NewGroup(mesh, ranks, id)
		if err != nil {
			return err
		}
		for r := range comms {
			if comms[r][id], err = g.Comm(r); err != nil {
				return err
			}
		}
	}

	// rounds runs `n` barrier-aligned rounds of op on every rank at once and
	// returns the seconds per round, taking each round's slowest rank. prep
	// restores a rank's inputs before each round and is not timed.
	rounds := func(n int, prep func(r int), op func(r int) error) float64 {
		took := make([][]time.Duration, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			took[r] = make([]time.Duration, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					prep(r)
					if err := comms[r][0].Barrier(); err != nil {
						p.fail(err)
						return
					}
					t0 := time.Now()
					p.fail(op(r))
					took[r][i] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		var total time.Duration
		for i := 0; i < n; i++ {
			slowest := took[0][i]
			for r := 1; r < world; r++ {
				slowest = max(slowest, took[r][i])
			}
			total += slowest
		}
		return total.Seconds() / float64(n)
	}
	// seconds sizes the round count from two warm-up rounds so that one
	// repetition lasts about Dur, and returns the median over Reps.
	seconds := func(prep func(r int), op func(r int) error) float64 {
		n := max(1, int(p.Dur.Seconds()/rounds(2, prep, op)))
		xs := make([]float64, p.Reps)
		for i := range xs {
			xs[i] = rounds(n, prep, op)
		}
		return median(xs)
	}

	busBytes := 2 * float64(world-1) / world * 8 * float64(elems)
	src := make([]*tensor.Tensor, world)
	lists := make([][]*tensor.Tensor, world)
	flats := make([]*tensor.Tensor, world)
	outs := make([]*tensor.Tensor, world)
	shards := make([]*tensor.Tensor, world)
	counts := collective.EvenCounts(elems, world)
	for r := range src {
		src[r] = rng.Normal(0.01, elems)
		flats[r] = tensor.New(elems)
		outs[r] = tensor.New(elems)
		shards[r] = tensor.New(counts[r])
		for s := 0; s < spec.Stages; s++ {
			lists[r] = append(lists[r], tensor.New(spec.Width, spec.Width))
		}
	}
	per := spec.Width * spec.Width
	sec := seconds(func(r int) {
		for s, t := range lists[r] {
			t.CopyFrom(src[r].Data()[s*per : (s+1)*per])
		}
	}, func(r int) error {
		return comms[r][gradGroup].AllReduceBucketsInPlace(lists[r], collective.OpSum, 0)
	})
	m["collective.allreduce_busgbs"] = busBytes / sec / 1e9

	sec = seconds(func(r int) { flats[r].CopyFrom(src[r].Data()) }, func(r int) error {
		if err := comms[r][gradGroup].ReduceScatterVInto(shards[r], flats[r], counts, collective.OpSum, 0); err != nil {
			return err
		}
		return comms[r][0].AllGatherVInto(outs[r], shards[r], counts)
	})
	m["collective.rsv_agv_busgbs"] = busBytes / sec / 1e9

	// The loss shard: the last stage of a replica owns all NumMB losses.
	lossShard := make([]*tensor.Tensor, world)
	gathered := make([]*tensor.Tensor, world)
	for r := range lossShard {
		lossShard[r] = rng.Normal(1, spec.NumMB)
		gathered[r] = tensor.New(world * spec.NumMB)
	}
	sec = seconds(func(int) {}, func(r int) error { return comms[r][0].AllGatherInto(gathered[r], lossShard[r]) })
	m["collective.allgather_small_us"] = sec * 1e6
	return nil
}
