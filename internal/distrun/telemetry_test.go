package distrun

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// TestRecordStepZeroAllocs pins the per-step telemetry path of an armed
// worker at zero heap allocations once its buffers have grown: the sampler
// makes the step's sample and the session takes it, hands it to a local
// timeline and queues it for the next ping. The heartbeat is a minute, so no
// ping (whose JSON allocates) runs while the path is measured.
func TestRecordStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tl := obs.NewClusterTimeline()
	opts := dist.SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: time.Minute,
		Transport:         dist.Options{RecvTimeout: 10 * time.Second},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var coord, worker *dist.Session
	var coordErr, workerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		coord, coordErr = dist.Coordinate(addr, 2, nil, opts)
	}()
	go func() {
		defer wg.Done()
		workerOpts := opts
		workerOpts.OnMetrics = func(_ int, steps []obs.StepSample) { tl.Ingest(steps...) }
		for i := 0; i < 100; i++ {
			worker, workerErr = dist.Join(addr, workerOpts)
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
	defer coord.Close()
	defer worker.Close()

	defer beginProfiling()()
	sampler := newStepSampler(worker.Rank, worker.Transport.QueueDepth)
	step := 0
	record := func() {
		s, ok := sampler.record(step, time.Millisecond)
		if !ok {
			t.Fatal("armed sampler made no sample")
		}
		worker.RecordStep(s)
		step++
	}
	// Past the ping batch's compaction point, so the measured calls find
	// every buffer at its steady-state size.
	for i := 0; i < 4096; i++ {
		record()
	}
	if a := testing.AllocsPerRun(1000, record); a != 0 {
		t.Fatalf("sampler -> RecordStep allocates %.2f/step, want 0", a)
	}
	if got := tl.Snapshot().Ranks[int64(worker.Rank)].Samples; got != int64(step) {
		t.Fatalf("local timeline ingested %d samples, want %d", got, step)
	}
}
