package collective

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// calibTagBase is a reserved tag window for calibration traffic, below the
// group windows and far above pipeline P2P tags.
const calibTagBase = TagSpaceBase / 2

// Calibrate measures the effective per-hop link of a transport as the ring
// collectives experience it, between actor IDs a and b: per-hop latency from
// small-message ping-pongs, and bandwidth from bulk transfers that perform
// the same per-hop work the ring engine (ring.go) performs in steady state.
// A ring all-reduce spends half its hops in reducePass — the sender lends its
// segment to the transport, the receiver folds the chunk in and recycles it —
// and half in gatherPass, where the receiver copies the chunk over its
// segment instead. The calibration alternates the two profiles round trip for
// round trip. The returned perf.Link feeds the same analytic formulas the
// simulator's dpSync cost model uses, which is what makes
// executed-vs-analytic validation apples-to-apples.
func Calibrate(tr transport.Transport, a, b int) perf.Link {
	const (
		pingIters = 200
		bwWarmup  = 2
		bwIters   = 8
		bwElems   = 1 << 19 // 4 MiB per hop
	)

	// Strictly alternating round trips reuse two fixed tags per direction, so
	// after the first iteration every message lands in a warm persistent
	// mailbox — the same steady state the ring collectives reach once their
	// tag windows wrap.
	const (
		tagPing = calibTagBase
		tagPong = calibTagBase + 1
		tagBulk = calibTagBase + 2
		tagEcho = calibTagBase + 3
	)

	var wg sync.WaitGroup
	wg.Add(1)
	// Responder.
	go func() {
		defer wg.Done()
		for i := 0; i < pingIters; i++ {
			t, err := tr.Recv(b, a, tagPing)
			if err != nil {
				return
			}
			tr.Send(b, a, tagPong, t)
			tensor.Recycle(t) // Send captured it
		}
		acc := make([]float64, bwElems)
		for i := 0; i < bwWarmup+bwIters; i++ {
			t, err := tr.Recv(b, a, tagBulk)
			if err != nil {
				return
			}
			if i%2 == 0 {
				tensor.AddSlice(acc, acc, t.Data()) // reduce hop
			} else {
				copy(acc, t.Data()) // gather hop
			}
			tensor.Recycle(t)
			// As in Communicator.send, and settled before acc is next written.
			tr.SendLent(b, a, tagEcho, acc, nil)
			if tr.Settle(b, a) != nil {
				return
			}
		}
	}()

	// Latency: round trips of 1-element tensors.
	ping := tensor.Scalar(1)
	t0 := time.Now()
	for i := 0; i < pingIters; i++ {
		tr.Send(a, b, tagPing, ping)
		pong, err := tr.Recv(a, b, tagPong)
		if err != nil {
			return perf.Link{BwGBs: 1, Latency: 1e-6}
		}
		tensor.Recycle(pong)
	}
	latency := time.Since(t0).Seconds() / float64(2*pingIters)

	// Bandwidth: bulk round trips with the ring's work on both sides. Warmup
	// iterations populate the scratch pool so the timed ones measure steady
	// state. payload is lent every round and never written.
	payload := make([]float64, bwElems)
	for i := range payload {
		payload[i] = float64(i)
	}
	acc := make([]float64, bwElems)
	var t1 time.Time
	for i := 0; i < bwWarmup+bwIters; i++ {
		if i == bwWarmup {
			t1 = time.Now()
		}
		tr.SendLent(a, b, tagBulk, payload, nil)
		back, err := tr.Recv(a, b, tagEcho)
		if err != nil {
			return perf.Link{BwGBs: 1, Latency: latency}
		}
		if i%2 == 0 {
			tensor.AddSlice(acc, acc, back.Data())
		} else {
			copy(acc, back.Data())
		}
		tensor.Recycle(back)
	}
	elapsed := time.Since(t1).Seconds()
	wg.Wait()
	_ = tr.Settle(a, b) // every echo is in, so payload was written out long ago; a failure has nothing more to say

	hops := float64(2 * bwIters)
	bytesPerHop := float64(bwElems * bytesPerElem)
	perHop := elapsed/hops - latency
	if perHop <= 0 {
		perHop = elapsed / hops
	}
	return perf.Link{
		BwGBs:   bytesPerHop / perHop / 1e9,
		Latency: latency,
	}
}

// RingLink derates a calibrated link for an n-rank in-process ring. The
// analytic ring formulas assume every rank makes progress simultaneously —
// true of GPUs and NICs, but goroutine ranks share min(GOMAXPROCS, n) OS
// cores, so per-rank effective bandwidth shrinks by n/min(GOMAXPROCS, n)
// (perf.EffectiveBandwidthShare's contention model applied to cores instead
// of links). On a machine with >= n cores this is the identity.
func RingLink(l perf.Link, n int) perf.Link {
	procs := goruntime.GOMAXPROCS(0)
	if procs > n {
		procs = n
	}
	if procs < 1 {
		procs = 1
	}
	return perf.Link{
		BwGBs:   perf.EffectiveBandwidthShare(l.BwGBs*float64(procs), n), // l.BwGBs · procs/n
		Latency: l.Latency,
	}
}

// PredictBucketedAllReduce returns the analytic wall time of a bucketed
// all-reduce over the given link: the sum of ring all-reduce times of each
// fused bucket, computed with the identical perf formula the simulator's
// dpSync cost term uses. Pass the per-tensor element counts in the order
// they would be reduced.
func PredictBucketedAllReduce(l perf.Link, sizes []int, n, bucketBytes int) float64 {
	total := 0.0
	for _, b := range bucketBoundaries(sizes, bucketBytes) {
		elems := 0
		for _, s := range sizes[b[0]:b[1]] {
			elems += s
		}
		total += l.AllReduce(float64(elems*bytesPerElem), n)
	}
	return total
}

// Each measured round consumes at least two op tag windows (barrier +
// collective); opReuseWindows/2 rounds walk the whole tag-reuse cycle, so
// these warmups cover it almost three times over — the timed iterations run
// entirely on warm mailboxes and pooled chunks.
const (
	measureWarmups = 24
	measureIters   = 5
)

// MeasureAllReduce runs bucketed all-reduces of elems float64 elements over
// n ranks on tr (actor IDs 0..n-1), rank r contributing the constant r+1, for
// measureWarmups+measureIters rounds. A round refills the rank's buffer,
// aligns the ranks on a barrier, and times the all-reduce. The result is the
// steady-state wall time — per timed round the slowest rank's duration,
// averaged over the rounds — plus the reduced tensor from rank 0 for
// correctness checks.
func MeasureAllReduce(tr transport.Transport, n, elems, bucketBytes int) (time.Duration, *tensor.Tensor, error) {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(tr, ranks, 0)
	if err != nil {
		return 0, nil, err
	}

	durs := make([][measureIters]time.Duration, n)
	outs := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := g.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			in := tensor.New(elems)
			for i := range in.Data() {
				in.Data()[i] = float64(r + 1)
			}
			work := tensor.New(elems)
			bufs := []*tensor.Tensor{work}
			for it := 0; it < measureWarmups+measureIters; it++ {
				work.CopyFrom(in.Data())
				if errs[r] = comm.Barrier(); errs[r] != nil {
					return
				}
				start := time.Now()
				if errs[r] = comm.AllReduceBucketsInPlace(bufs, OpSum, bucketBytes); errs[r] != nil {
					return
				}
				if it >= measureWarmups {
					durs[r][it-measureWarmups] = time.Since(start)
				}
			}
			outs[r] = work
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("collective: measure rank %d: %w", r, err)
		}
	}
	var total time.Duration
	for it := 0; it < measureIters; it++ {
		slowest := durs[0][it]
		for r := 1; r < n; r++ {
			slowest = max(slowest, durs[r][it])
		}
		total += slowest
	}
	return total / measureIters, outs[0], nil
}
