package dist

import (
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

// shapedPair builds a 2-endpoint mesh whose endpoint 0 is shaped. Frames from
// 0 to 1 cross the modeled network; everything else is direct.
func shapedPair(t *testing.T, opts Options, shape ShapeOpts) *LocalMesh {
	t.Helper()
	mesh, err := NewLocalMesh(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	mesh.Endpoint(0).SetShape(shape)
	return mesh
}

// TestShapedLatencyFloor checks a frame can never arrive earlier than the
// configured one-way latency: arrival is stamped txEnd+latency and the
// sender worker holds the frame until then.
func TestShapedLatencyFloor(t *testing.T) {
	const latency = 30 * time.Millisecond
	mesh := shapedPair(t, Options{}, ShapeOpts{Latency: latency, Seed: 1})

	ten := tensor.Scalar(42)
	start := time.Now()
	mesh.Send(0, 1, 500, ten)
	tensor.Recycle(ten)
	got, err := mesh.Recv(1, 0, 500)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 42 {
		t.Fatalf("payload %v, want 42", got.Data()[0])
	}
	tensor.Recycle(got)
	// time.Sleep guarantees at-least semantics; allow 2ms of clock-read slop
	// between our start stamp and the enqueue stamp.
	if elapsed < latency-2*time.Millisecond {
		t.Fatalf("frame arrived after %v, latency floor is %v", elapsed, latency)
	}
}

// TestShapedBandwidthPacing checks the serialization delay of a bulk frame at
// a tight bandwidth cap: bytes/GBs nanoseconds must elapse before delivery.
func TestShapedBandwidthPacing(t *testing.T) {
	const elems = 1 << 14 // 128 KiB payload
	// 0.01 GB/s -> ~13.1ms serialization delay for 128 KiB.
	mesh := shapedPair(t, Options{}, ShapeOpts{BandwidthGBs: 0.01, Seed: 1})

	ten := tensor.GetScratchZero(elems)
	start := time.Now()
	mesh.Send(0, 1, 501, ten)
	tensor.Recycle(ten)
	if _, err := mesh.Recv(1, 0, 501); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("128 KiB at 0.01 GB/s delivered in %v, want >= ~13ms of serialization", elapsed)
	}
}

// TestShapedJitterKeepsFIFO floods one (src, dst, tag) stream under jitter
// comparable to the latency and requires in-order delivery: arrival times are
// clamped monotone per link, so jitter widens spacing but never reorders.
func TestShapedJitterKeepsFIFO(t *testing.T) {
	mesh := shapedPair(t, Options{}, ShapeOpts{
		Latency: 2 * time.Millisecond,
		Jitter:  2 * time.Millisecond,
		Seed:    99,
	})

	const n = 64
	for i := 0; i < n; i++ {
		ten := tensor.Scalar(float64(i))
		mesh.Send(0, 1, 777, ten)
		tensor.Recycle(ten)
	}
	for i := 0; i < n; i++ {
		got, err := mesh.Recv(1, 0, 777)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if v := got.Data()[0]; v != float64(i) {
			t.Fatalf("frame %d arrived out of order: payload %v", i, v)
		}
		tensor.Recycle(got)
	}
}

// TestShapedLossPoisonsNotHangs drops every frame and requires the receiver
// to fail by timeout — retransmit-free loss surfaces as the standard
// poison-not-hang contract, never a silent stall.
func TestShapedLossPoisonsNotHangs(t *testing.T) {
	mesh := shapedPair(t, Options{RecvTimeout: 300 * time.Millisecond}, ShapeOpts{
		Latency:  time.Millisecond,
		LossProb: 1,
		Seed:     5,
	})

	ten := tensor.Scalar(7)
	mesh.Send(0, 1, 600, ten)
	tensor.Recycle(ten)
	if _, err := mesh.Recv(1, 0, 600); err == nil {
		t.Fatal("recv of a dropped frame succeeded")
	}
}

// TestShapedSelfSendBypasses checks loopback skips the modeled network: a
// self-send under a huge latency still arrives immediately.
func TestShapedSelfSendBypasses(t *testing.T) {
	mesh := shapedPair(t, Options{}, ShapeOpts{Latency: 10 * time.Second, Seed: 1})

	ten := tensor.Scalar(3)
	start := time.Now()
	mesh.Send(0, 0, 601, ten)
	tensor.Recycle(ten)
	got, err := mesh.Recv(0, 0, 601)
	if err != nil {
		t.Fatal(err)
	}
	tensor.Recycle(got)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("self-send took %v, should bypass the 10s modeled latency", elapsed)
	}
}

// TestShapedCloseDeliversQueuedFrames checks a graceful Close's drain: frames
// a shaped link has queued still arrive, on their shaped schedule, before the
// goodbye — a job teardown never strands a peer waiting on a frame the sender
// already promised.
func TestShapedCloseDeliversQueuedFrames(t *testing.T) {
	mesh := shapedPair(t, Options{}, ShapeOpts{Latency: 20 * time.Millisecond, Seed: 2})

	const n = 5
	for i := 0; i < n; i++ {
		ten := tensor.Scalar(float64(i))
		mesh.Send(0, 1, 700+i, ten)
		tensor.Recycle(ten)
	}
	mesh.Endpoint(0).Close()
	for i := 0; i < n; i++ {
		got, err := mesh.Recv(1, 0, 700+i)
		if err != nil {
			t.Fatalf("frame %d lost across Close: %v", i, err)
		}
		if v := got.Data()[0]; v != float64(i) {
			t.Fatalf("frame %d payload %v", i, v)
		}
		tensor.Recycle(got)
	}
}

// TestShapedLinkNeverLends checks SendLent on a shaped link copies: the
// payload is the caller's again the moment SendLent returns, with nothing to
// settle, however long the frame then waits out its modeled delay.
func TestShapedLinkNeverLends(t *testing.T) {
	mesh := shapedPair(t, Options{}, ShapeOpts{Latency: 20 * time.Millisecond, Seed: 4})

	payload := make([]float64, 1<<15)
	for i := range payload {
		payload[i] = float64(i)
	}
	mesh.SendLent(0, 1, 800, payload)
	if lent, _ := lentCounts(mesh.Endpoint(0)); lent != 0 {
		t.Fatalf("a shaped link lent %d payloads, want every one copied", lent)
	}
	for i := range payload {
		payload[i] = -1
	}
	got, err := mesh.Recv(1, 0, 800)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data() {
		if v != float64(i) {
			t.Fatalf("element %d arrived as %v: the link read the payload after SendLent returned", i, v)
		}
	}
	tensor.Recycle(got)
}

// settledGoroutines waits for the goroutine count to stop moving (goroutines
// of earlier tests on their way out) and returns it.
func settledGoroutines() int {
	n := goruntime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := goruntime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestShapingStartsNoGoroutine checks a shaped link is the unshaped link's one
// sender worker: a first burst to a peer starts as many goroutines shaped as
// unshaped (the sender worker and the peer's reader), not a pacer and a
// delivery stage on top.
func TestShapingStartsNoGoroutine(t *testing.T) {
	mesh, err := NewLocalMesh(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.Endpoint(0).SetShape(ShapeOpts{Latency: time.Millisecond, Jitter: 500 * time.Microsecond, Seed: 3})
	burst := func(from int) int {
		for i := 0; i < 64; i++ {
			ten := tensor.Scalar(float64(i))
			mesh.Send(from, 1, 900+i, ten)
			tensor.Recycle(ten)
		}
		for i := 0; i < 64; i++ {
			got, err := mesh.Recv(1, from, 900+i)
			if err != nil {
				t.Fatal(err)
			}
			tensor.Recycle(got)
		}
		return settledGoroutines()
	}
	before := settledGoroutines()
	afterUnshaped := burst(2)
	afterShaped := burst(0)
	if unshaped, shaped := afterUnshaped-before, afterShaped-afterUnshaped; shaped != unshaped {
		t.Fatalf("a shaped link started %d goroutines, an unshaped one %d", shaped, unshaped)
	}
}

// TestPacerChargesEncodedBytes is the bandwidth charge: a frame is paced by
// its encoded length, so an int8q frame of n elements pays for 8 + n payload
// bytes — not the 8·n its f64 twin carries.
func TestPacerChargesEncodedBytes(t *testing.T) {
	const n = 1000
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) - n/2
	}
	h := Header{Kind: frameData, From: 0, To: 1, Tag: 3, DType: DTF64, Shape: []int{n}}
	f64 := EncodeFrame(&h, data, false)
	defer recycleFrameBuf(f64)
	h.DType = DTInt8Q
	q := EncodeFrame(&h, data, false)
	defer recycleFrameBuf(q)
	if got, want := len(f64)-len(q), 8*n-(8+n); got != want {
		t.Fatalf("int8q frame is %d bytes shorter than f64, want %d", got, want)
	}

	p := newPacer(ShapeOpts{BandwidthGBs: 1}, 0, 1) // 1 GB/s: a byte a nanosecond
	t0 := time.Unix(100, 0)
	at, drop := p.arrival(t0, len(q))
	if drop {
		t.Fatal("a loss-free link dropped a frame")
	}
	if got := at.Sub(t0); got != time.Duration(len(q)) {
		t.Fatalf("%d-byte frame took %v to serialize at 1 GB/s, want %dns", len(q), got, len(q))
	}
	// The next frame queues behind this one's serialization.
	if at2, _ := p.arrival(t0, len(f64)); at2.Sub(at) != time.Duration(len(f64)) {
		t.Fatalf("second frame left %v after the first, want %dns", at2.Sub(at), len(f64))
	}
}

// TestPacerArrivalsMonotoneUnderJitter: jitter several times the spacing of
// the frames never lets one arrive before its predecessor, nor earlier than
// latency − jitter after it was queued.
func TestPacerArrivalsMonotoneUnderJitter(t *testing.T) {
	opts := ShapeOpts{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, BandwidthGBs: 1, Seed: 11}
	p := newPacer(opts, 0, 1)
	t0 := time.Unix(100, 0)
	var last time.Time
	for i := 0; i < 1000; i++ {
		enq := t0.Add(time.Duration(i) * 50 * time.Microsecond)
		at, _ := p.arrival(enq, 4096)
		if at.Before(last) {
			t.Fatalf("frame %d arrives %v before frame %d", i, last.Sub(at), i-1)
		}
		if at.Before(enq.Add(opts.Latency - opts.Jitter)) {
			t.Fatalf("frame %d arrives %v after it was queued, under the latency floor", i, at.Sub(enq))
		}
		last = at
	}
}

// TestPacerLossOneDropsEverything: LossProb 1 drops every frame.
func TestPacerLossOneDropsEverything(t *testing.T) {
	p := newPacer(ShapeOpts{Latency: time.Millisecond, LossProb: 1, Seed: 5}, 0, 1)
	t0 := time.Unix(100, 0)
	for i := 0; i < 1000; i++ {
		if _, drop := p.arrival(t0.Add(time.Duration(i)*time.Millisecond), 64); !drop {
			t.Fatalf("frame %d delivered at LossProb 1", i)
		}
	}
}

// TestPacerReplaysLinkSeed pins each link's random stream: seeded Seed ^
// from<<20 ^ to, one jitter draw then one loss draw a frame — the sequence
// shaped links have always drawn, so a recorded jitter and loss pattern
// replays.
func TestPacerReplaysLinkSeed(t *testing.T) {
	opts := ShapeOpts{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, LossProb: 0.3, Seed: 7}
	const from, to = 2, 3
	p := newPacer(opts, from, to)
	ref := rand.New(rand.NewSource(int64(opts.Seed ^ uint64(from)<<20 ^ uint64(to))))
	t0 := time.Unix(100, 0)
	drops := 0
	for i := 0; i < 200; i++ {
		enq := t0.Add(time.Duration(i) * time.Second) // far apart: no clamping
		wantAt := enq.Add(opts.Latency + time.Duration((2*ref.Float64()-1)*float64(opts.Jitter)))
		wantDrop := ref.Float64() < opts.LossProb
		at, drop := p.arrival(enq, 100)
		if !at.Equal(wantAt) || drop != wantDrop {
			t.Fatalf("frame %d: arrival %v drop %v, want %v %v", i, at.Sub(enq), drop, wantAt.Sub(enq), wantDrop)
		}
		if drop {
			drops++
		}
	}
	if drops == 0 || drops == 200 {
		t.Fatalf("%d of 200 frames dropped at LossProb 0.3", drops)
	}
}
