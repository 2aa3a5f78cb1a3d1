package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// testWorld bootstraps a world of n sessions inside the test process (real
// TCP control and data planes, goroutine "processes").
func testWorld(t *testing.T, n int, job []byte) []*Session {
	t.Helper()
	opts := SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Transport:         Options{RecvTimeout: 10 * time.Second},
	}
	sessions := make([]*Session, n)
	errs := make([]error, n)
	var wg sync.WaitGroup

	// The coordinator must be listening before workers dial: start it first
	// with a known port by grabbing a free one.
	addrCh := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bind on :0 via a probe listener is racy; instead let Coordinate
		// bind :0 directly and report its control address... Coordinate takes
		// the address literally, so pre-pick one.
		s, err := Coordinate(<-addrCh, n, job, opts)
		sessions[0], errs[0] = s, err
	}()
	addr := freeAddr(t)
	addrCh <- addr
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry while the coordinator's listener comes up.
			var s *Session
			var err error
			for i := 0; i < 100; i++ {
				s, err = Join(addr, opts)
				if err == nil || !strings.Contains(err.Error(), "connect") {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			idx := -1
			if s != nil {
				idx = s.Rank
			}
			if idx < 0 {
				t.Errorf("join: %v", err)
				return
			}
			sessions[idx], errs[idx] = s, err
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	})
	return sessions
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestBootstrapAndEcho brings up a 4-rank world, checks rank/book/job
// distribution, and round-trips tagged tensors across every pair.
func TestBootstrapAndEcho(t *testing.T) {
	job, _ := json.Marshal(map[string]int{"width": 32})
	sessions := testWorld(t, 4, job)
	for r, s := range sessions {
		if s.Rank != r || s.World != 4 {
			t.Fatalf("session %d: rank %d world %d", r, s.Rank, s.World)
		}
		if r > 0 && string(s.Job) != string(job) {
			t.Fatalf("rank %d job %q, want %q", r, s.Job, job)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for r, s := range sessions {
		wg.Add(1)
		go func(r int, s *Session) {
			defer wg.Done()
			tr := s.Transport
			// Send a distinctive tensor to every other rank.
			for to := 0; to < 4; to++ {
				if to == r {
					continue
				}
				payload := tensor.MustFromSlice([]float64{float64(r*100 + to), 2, 3}, 3)
				tr.Send(r, to, 1000+r, payload)
			}
			for from := 0; from < 4; from++ {
				if from == r {
					continue
				}
				got, err := tr.Recv(r, from, 1000+from)
				if err != nil {
					errCh <- fmt.Errorf("rank %d recv from %d: %w", r, from, err)
					return
				}
				if got.At(0) != float64(from*100+r) {
					errCh <- fmt.Errorf("rank %d got %v from %d", r, got.Data(), from)
					return
				}
				tensor.Recycle(got)
			}
		}(r, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSessionBarrier checks the control-plane barrier across all ranks.
func TestSessionBarrier(t *testing.T) {
	sessions := testWorld(t, 3, nil)
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if errs[i] = s.Barrier(round); errs[i] != nil {
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d barrier: %v", i, err)
		}
	}
}

// TestBarrierFailsWhenAPeerLeaves has rank 1 of a three-rank world close its
// session gracefully while the others wait at a barrier. The coordinator's
// barrier must fail at once, naming the rank that left, instead of waiting
// out 4× the heartbeat timeout; and once the coordinator leaves in turn, rank
// 2's barrier must fail at once, naming it.
func TestBarrierFailsWhenAPeerLeaves(t *testing.T) {
	sessions := testWorld(t, 3, nil)
	rank2 := make(chan error, 1)
	go func() { rank2 <- sessions[2].Barrier(0) }()
	sessions[1].Close()
	start := time.Now()
	err := sessions[0].Barrier(0)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("coordinator's barrier took %v to notice rank 1 left, want < 1s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "rank 1 left the session") {
		t.Fatalf("coordinator's barrier: %v, want rank 1 named as having left", err)
	}
	sessions[0].Close()
	select {
	case err := <-rank2:
		if err == nil || !strings.Contains(err.Error(), "the coordinator left the session") {
			t.Fatalf("rank 2's barrier: %v, want the coordinator named as having left", err)
		}
	case <-time.After(time.Second):
		t.Fatal("rank 2's barrier still waiting 1s after the coordinator left")
	}
}

// TestWorkerDeathPoisonsTransport is the worker-kill regression: when a
// worker vanishes abruptly (no goodbye — its control conn just dies), the
// coordinator's pending Recv must surface a transport-poisoned error instead
// of hanging forever.
func TestWorkerDeathPoisonsTransport(t *testing.T) {
	sessions := testWorld(t, 3, nil)
	coord := sessions[0]

	// "Kill" rank 2: slam its sockets shut without any goodbye, exactly what
	// a SIGKILL does to the process's descriptors.
	victim := sessions[2]
	victim.coord.c.Close()
	victim.Transport.Close()

	// The coordinator is blocked in a receive that rank 2 will never serve.
	done := make(chan error, 1)
	go func() {
		_, err := coord.Transport.Recv(0, 2, 42)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("recv from a dead worker succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recv from a dead worker hung; transport was not poisoned")
	}
	if coord.Transport.Err() == nil {
		t.Fatal("coordinator transport not poisoned after worker death")
	}
}

// TestPeerConnBreakPoisons pins the data-plane half of failure detection:
// an established stream that breaks mid-conversation poisons the receiving
// transport.
func TestPeerConnBreakPoisons(t *testing.T) {
	a, err := NewTransport(0, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTransport(1, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	book := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.Connect(book)
	b.Connect(book)

	// Establish the b→a stream, then kill b without a goodbye.
	b.Send(1, 0, 7, tensor.Scalar(3))
	got, err := a.Recv(0, 1, 7)
	if err != nil || got.At() != 3 {
		t.Fatalf("recv: %v %v", got, err)
	}
	tensor.Recycle(got)

	pending := make(chan error, 1)
	go func() {
		_, err := a.Recv(0, 1, 8)
		pending <- err
	}()
	// Abrupt close: the reader on a's side sees the stream break.
	b.mu.Lock()
	for _, c := range b.conns {
		c.Close()
	}
	b.mu.Unlock()
	select {
	case err := <-pending:
		if err == nil {
			t.Fatal("recv over a broken stream succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recv hung after the peer stream broke")
	}
	b.Close()
}

// TestUnknownFrameKindPoisons: a peer that follows its hello with a frame of a
// kind the wire does not have — kind 3, the envelope older builds wrapped
// bursts of small frames in, around a well-formed data frame — breaks the
// stream with an error naming the kind, in bounded time, instead of having
// the frame delivered or skipped.
func TestUnknownFrameKindPoisons(t *testing.T) {
	tr, err := NewTransport(0, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("unix", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inner := EncodeFrame(&Header{Kind: frameData, From: 1, To: 0, Tag: 7, DType: DTF64, Shape: []int{2}}, []float64{1, 2}, false)
	total := headerFixed + 4 + len(inner)
	envelope := make([]byte, total)
	copy(envelope[putFrameHeader(envelope, &Header{Kind: 3, From: 1, To: 0, DType: DTF64, Shape: []int{len(inner)}}, false, total):], inner)
	for _, frame := range [][]byte{controlFrame(frameHello, 1, 0), envelope} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// The receive is bounded by RecvTimeout and returns as soon as the stream
	// breaks.
	if got, err := tr.Recv(0, 1, 7); err == nil {
		tensor.Recycle(got)
		t.Fatal("the data frame inside a kind-3 frame was delivered")
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "unknown frame kind 3") {
		t.Fatalf("transport error %v after a kind-3 frame, want one naming unknown frame kind 3", err)
	}
}

// TestLocalMeshRoundTrip exercises the in-process multi-endpoint topology
// (the rpcx successor) including CRC frames.
func TestLocalMeshRoundTrip(t *testing.T) {
	m, err := NewLocalMesh(3, Options{CRC: true, RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want := tensor.MustFromSlice([]float64{1.5, -2.5, 3.25, 0}, 2, 2)
	m.Send(0, 2, 5, want)
	got, err := m.Recv(2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 0, 0) {
		t.Fatalf("got %v want %v", got, want)
	}
	tensor.Recycle(got)
	n, bytes := m.SendCount()
	if n != 1 || bytes != 32 {
		t.Fatalf("SendCount = %d, %d; want 1, 32", n, bytes)
	}
}

// TestLocalMeshTrainsLikeChanTransport is wired in the runtime-facing test
// (see internal/distrun); here we only pin self-sends.
func TestTransportSelfSend(t *testing.T) {
	a, err := NewTransport(0, Options{RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	orig := tensor.MustFromSlice([]float64{9, 8}, 2)
	a.Send(0, 0, 3, orig)
	// Loopback must copy: mutating the original after Send cannot affect the
	// delivered payload.
	orig.Data()[0] = -1
	got, err := a.Recv(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0) != 9 || got.At(1) != 8 {
		t.Fatalf("self-send delivered %v", got.Data())
	}
	tensor.Recycle(got)
}

// TestJoinRejectsUnavailableRank pins the explicit-rank contract: a worker
// that requests a rank already taken (two processes pinned to the same rank)
// or outside the world is rejected at rendezvous instead of silently
// reassigned to an arrival-order rank the operator did not ask for.
func TestJoinRejectsUnavailableRank(t *testing.T) {
	opts := SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	addr := freeAddr(t)
	var coordSess *Session
	var coordErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		coordSess, coordErr = Coordinate(addr, 3, nil, opts)
	}()

	joinRetry := func(o SessionOptions) (*Session, error) {
		var s *Session
		var err error
		for i := 0; i < 100; i++ {
			s, err = Join(addr, o)
			if err == nil || !strings.Contains(err.Error(), "connect") {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		return s, err
	}

	// First claimant of rank 1 wins.
	firstDone := make(chan *Session, 1)
	go func() {
		o := opts
		o.WantRank = 1
		s, err := joinRetry(o)
		if err != nil {
			t.Errorf("first rank-1 join: %v", err)
		}
		firstDone <- s
	}()
	time.Sleep(300 * time.Millisecond) // let the first hello land

	// Duplicate explicit rank: rejected, not reassigned.
	o := opts
	o.WantRank = 1
	if _, err := Join(addr, o); err == nil || !strings.Contains(err.Error(), "rank 1 unavailable") {
		t.Fatalf("duplicate rank-1 join: err = %v, want rejection", err)
	}
	// Out-of-world explicit rank: rejected.
	o.WantRank = 7
	if _, err := Join(addr, o); err == nil || !strings.Contains(err.Error(), "rank 7 unavailable") {
		t.Fatalf("rank-7 join in world of 3: err = %v, want rejection", err)
	}

	// A coordinator-assigned join completes the world.
	last, err := joinRetry(opts)
	if err != nil {
		t.Fatalf("final join: %v", err)
	}
	<-done
	if coordErr != nil {
		t.Fatalf("coordinate: %v", coordErr)
	}
	first := <-firstDone
	if first == nil || first.Rank != 1 {
		t.Fatalf("first claimant got rank %v, want 1", first)
	}
	if last.Rank != 2 {
		t.Fatalf("assigned join got rank %d, want 2", last.Rank)
	}
	for _, s := range []*Session{coordSess, first, last} {
		s.Close()
	}
}

// sampleSink collects what an OnMetrics hook receives, copying each batch
// (the session reuses the slice it passes).
type sampleSink struct {
	mu      sync.Mutex
	samples []obs.StepSample
	ranks   []int // the rank OnMetrics named, per sample
	batches []int // the length of every call's batch
}

func (k *sampleSink) hook(rank int, steps []obs.StepSample) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.samples = append(k.samples, steps...)
	for range steps {
		k.ranks = append(k.ranks, rank)
	}
	k.batches = append(k.batches, len(steps))
}

// steps lists the Step of every sample delivered so far, in order.
func (k *sampleSink) steps() []int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var steps []int64
	for _, s := range k.samples {
		steps = append(steps, s.Step)
	}
	return steps
}

// wait blocks until at least n samples have been delivered.
func (k *sampleSink) wait(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		k.mu.Lock()
		got := len(k.samples)
		k.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d samples delivered within 10s", got, n)
		}
	}
}

// metricsPair bootstraps a coordinator and one worker beating every
// interval, with coordSink and workerSink (either may be nil) as their
// OnMetrics hooks. The caller closes both.
func metricsPair(t *testing.T, interval time.Duration, coordSink, workerSink func(int, []obs.StepSample)) (coord, worker *Session) {
	t.Helper()
	opts := SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: interval,
		HeartbeatTimeout:  5 * time.Second,
		Transport:         Options{RecvTimeout: 10 * time.Second},
	}
	coordOpts, workerOpts := opts, opts
	coordOpts.OnMetrics, workerOpts.OnMetrics = coordSink, workerSink

	addr := freeAddr(t)
	var coordErr, workerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		coord, coordErr = Coordinate(addr, 2, nil, coordOpts)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			worker, workerErr = Join(addr, workerOpts)
			if workerErr == nil || !strings.Contains(workerErr.Error(), "connect") {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()
	if coordErr != nil || workerErr != nil {
		t.Fatalf("bootstrap: coord %v worker %v", coordErr, workerErr)
	}
	return coord, worker
}

// TestHeartbeatMetricsPiggyback pins the telemetry streaming path end to
// end: the samples a worker's session records ride its next heartbeat ping,
// and the coordinator's OnMetrics hook receives each one exactly once,
// field-for-field equal and attributed to the worker's rank.
func TestHeartbeatMetricsPiggyback(t *testing.T) {
	const interval = 50 * time.Millisecond
	var got sampleSink
	coord, worker := metricsPair(t, interval, got.hook, nil)
	defer coord.Close()
	defer worker.Close()

	want := []obs.StepSample{
		{Rank: 1, Step: 3, WallNs: 7e6, ComputeNs: 5e6,
			WireNs: 1e6, IdleNs: 1e6, BytesSent: 4096, QueueDepth: 2, PoolHit: 8, PoolMiss: 2, Allocs: 44},
		{Rank: 2, Step: -1, WallNs: -5, Allocs: 1<<62 + 3}, // negative + huge values survive
	}
	for i, s := range want {
		worker.RecordStep(s)
		got.wait(t, i+1)
	}
	// Idle heartbeats (no new samples) must not re-deliver old ones.
	time.Sleep(5 * interval)
	got.mu.Lock()
	defer got.mu.Unlock()
	if !slices.Equal(got.samples, want) {
		t.Fatalf("coordinator received %+v, want each of %+v exactly once", got.samples, want)
	}
	for _, r := range got.ranks {
		if r != 1 {
			t.Fatalf("samples attributed to rank %d, want 1", r)
		}
	}
}

// TestRejoinedWorkerShipsOnlyItsNewSession: a worker process that leaves one
// session and joins another ships the new session's samples alone — the
// first session's steps, with their old rank, must not reach the second
// coordinator as phantom telemetry.
func TestRejoinedWorkerShipsOnlyItsNewSession(t *testing.T) {
	const interval = 50 * time.Millisecond
	var first, second sampleSink
	coord, worker := metricsPair(t, interval, first.hook, nil)
	for step := int64(100); step <= 102; step++ {
		worker.RecordStep(obs.StepSample{Rank: 1, Step: step})
	}
	first.wait(t, 3)
	worker.Close()
	coord.Close()

	coord, worker = metricsPair(t, interval, second.hook, nil)
	defer coord.Close()
	defer worker.Close()
	worker.RecordStep(obs.StepSample{Rank: 1, Step: 200})
	second.wait(t, 1)
	time.Sleep(5 * interval)
	if got := second.steps(); !slices.Equal(got, []int64{200}) {
		t.Fatalf("second coordinator received steps %v, want [200]", got)
	}
}

// TestWorkerSinkSeesItsOwnSamples covers a worker's local view: its own
// OnMetrics receives every sample as RecordStep takes it, under its rank,
// and its coordinator receives the same samples over the heartbeat.
func TestWorkerSinkSeesItsOwnSamples(t *testing.T) {
	var remote, local sampleSink
	coord, worker := metricsPair(t, 50*time.Millisecond, remote.hook, local.hook)
	defer coord.Close()
	defer worker.Close()
	for step := int64(0); step < 3; step++ {
		worker.RecordStep(obs.StepSample{Rank: int64(worker.Rank), Step: step})
	}
	if got := local.steps(); !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("worker sink received steps %v, want [0 1 2] before RecordStep returned", got)
	}
	for _, r := range local.ranks {
		if r != worker.Rank {
			t.Fatalf("worker sink was handed rank %d, want its own %d", r, worker.Rank)
		}
	}
	remote.wait(t, 3)
	if got := remote.steps(); !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("coordinator received steps %v, want [0 1 2]", got)
	}
}

// TestPingShipsNewestBacklog: a worker that records more samples between two
// pings than a ping carries ships the newest maxPendingSteps, oldest first,
// in one ping.
func TestPingShipsNewestBacklog(t *testing.T) {
	const interval = 300 * time.Millisecond
	const recorded = 1500
	var got sampleSink
	coord, worker := metricsPair(t, interval, got.hook, nil)
	defer coord.Close()
	defer worker.Close()
	for step := int64(0); step < recorded; step++ {
		worker.RecordStep(obs.StepSample{Rank: 1, Step: step})
	}
	got.wait(t, maxPendingSteps)
	time.Sleep(2 * interval)
	got.mu.Lock()
	batches := got.batches
	got.mu.Unlock()
	if !slices.Equal(batches, []int{maxPendingSteps}) {
		t.Fatalf("pings carried batches of %v samples, want one of %d", batches, maxPendingSteps)
	}
	steps := got.steps()
	for i, s := range steps {
		if want := int64(recorded - maxPendingSteps + i); s != want {
			t.Fatalf("sample %d is step %d, want %d", i, s, want)
		}
	}
}

// TestBlockedRecvDoesNotAllocate pins the pooled timeout timers on the wire
// transport's inbox (measured below the decoder: the helper delivers an
// already-decoded tensor the way readLoop does): a Recv that blocks briefly
// before the matching delivery performs no allocation.
func TestBlockedRecvDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops Puts at random; count is only meaningful without -race")
	}
	mesh, err := NewLocalMesh(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	ep := mesh.Endpoint(0)
	ten := tensor.Scalar(1)
	kick := make(chan struct{})
	defer close(kick)
	go func() {
		for range kick {
			time.Sleep(200 * time.Microsecond)
			ep.deliver(1, 5, ten)
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		kick <- struct{}{}
		if _, err := ep.Recv(0, 1, 5); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("blocking Recv allocates %.0f objects per call, want 0", allocs)
	}
}
