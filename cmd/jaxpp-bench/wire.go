package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Wire throughput benchmark: tagged tensor ping-pongs between two actors on
// each transport tier — in-process channels, localhost TCP inside one
// process (LocalMesh), and real multi-process TCP (a re-exec'd child joins
// over the coordinator rendezvous) — so the binary wire protocol's cost
// shows up next to the in-process numbers it replaces gob for.

const (
	wireElems = 1 << 19 // 4 MiB payloads
	wireIters = 24
	wireWarm  = 4
)

type wireStats struct {
	// GB/s of payload moved (both directions counted) per transport tier.
	ChanTransportGBs float64 `json:"chan_transport_gbs"`
	TCPLocalGBs      float64 `json:"tcp_local_gbs"`
	TCPMultiProcGBs  float64 `json:"tcp_multiprocess_gbs,omitempty"`
	MultiProcErr     string  `json:"multiprocess_error,omitempty"`
	// Wire-collective tier: bucketed ring AllReduce over TCP endpoints
	// (dist.LocalMesh), reported as NCCL-style bus bandwidth
	// (2·(n−1)/n · bytes / time) — the throughput the distributed gradient
	// epilogue sees, as opposed to the point-to-point tiers above.
	CollectiveRanks  int     `json:"tcp_collective_ranks,omitempty"`
	CollectiveBusGBs float64 `json:"tcp_collective_busgbs,omitempty"`
	// DTypeTiers repeats the collective tier once per gradient wire encoding
	// (f64/f32/int8q) with per-round wire-byte accounting, so the snapshot
	// diff shows compression actually shrinking traffic (f32 must be half of
	// f64's bytes per step) and what it buys in bus bandwidth.
	DTypeTiers []wireTier `json:"dtype_tiers,omitempty"`
}

// wireTier is one per-dtype wire-collective measurement: the wire payload
// bytes one bucketed ring AllReduce moves across all ranks, and the bus
// bandwidth achieved.
type wireTier struct {
	DType        string  `json:"dtype"`
	BytesPerStep int64   `json:"bytes_per_step"`
	BusGBs       float64 `json:"bus_gbs"`
}

// wireTierRanks/Elems size the per-dtype tiers: 4 TCP endpoints reducing
// 2 MiB per rank (smaller than the f64 headline tier — three encodings run).
const (
	wireTierRanks = 4
	wireTierElems = 1 << 18
)

// measureWireTier runs the wire collective with every data frame encoded as
// dt (the mesh marks its whole tag space lossy) and accounts wire payload
// bytes per all-reduce round from the transport's dtype-aware send counters.
// f64 and f32 verify the reduction exactly — MeasureAllReduce's integer
// payloads are f32-exact — while int8q, lossy by design, gets a 1% band: its
// constant per-rank chunks quantize back to themselves modulo ulp-level
// scale recomputation around the ring.
func measureWireTier(dt dist.DType, n, elems int) (wireTier, error) {
	mesh, err := dist.NewLocalMesh(n, dist.Options{DType: dt})
	if err != nil {
		return wireTier{}, err
	}
	defer mesh.Close()
	_, bytesBefore := mesh.SendCount()
	dur, out, err := collective.MeasureAllReduce(mesh, n, elems, collective.DefaultBucketBytes)
	if err != nil {
		return wireTier{}, fmt.Errorf("wire tier %s: %w", dt, err)
	}
	_, bytesAfter := mesh.SendCount()
	want := float64(n * (n + 1) / 2)
	got := out.Data()[0]
	if dt == dist.DTInt8Q {
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			return wireTier{}, fmt.Errorf("wire tier %s: reduced value %v strays %.2e from %v", dt, got, rel, want)
		}
	} else if got != want {
		return wireTier{}, fmt.Errorf("wire tier %s: reduced value %v, want %v", dt, got, want)
	}
	bus := 2 * float64(n-1) / float64(n) * float64(elems*8)
	return wireTier{
		DType:        dt.String(),
		BytesPerStep: (bytesAfter - bytesBefore) / collective.MeasureAllReduceRounds,
		BusGBs:       bus / dur.Seconds() / 1e9,
	}, nil
}

// measureWireTiers runs the per-dtype tiers and cross-checks the headline
// compression claim: f32 traffic must be exactly half of f64's (payload
// accounting is deterministic — same frames, half the bytes per element).
func measureWireTiers() ([]wireTier, error) {
	var tiers []wireTier
	for _, dt := range []dist.DType{dist.DTF64, dist.DTF32, dist.DTInt8Q} {
		t, err := measureWireTier(dt, wireTierRanks, wireTierElems)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, t)
	}
	if f64, f32 := tiers[0].BytesPerStep, tiers[1].BytesPerStep; f32*2 != f64 {
		return nil, fmt.Errorf("wire tiers: f32 moves %d B/step vs f64 %d — expected exactly half", f32, f64)
	}
	return tiers, nil
}

const wireTagOut, wireTagBack = 1 << 16, 1<<16 + 1

// pingPongSender runs the timing half of a ping-pong against actor 1 on any
// transport: send wireElems-float64 tensors under tagOut, receive the echo
// under tagBack, report payload GB/s both directions. On a serializing
// transport (SenderOwnsSent) the caller keeps the pool-owned tensor and must
// Recycle it — skipping that would flood the timed loop with 4 MiB garbage
// and measure GC pressure instead of the wire. The echo peer runs elsewhere:
// a goroutine for the in-process tiers, a child process for the
// cross-process tier.
func pingPongSender(tr transport.Transport, iters int) (float64, error) {
	senderOwns := tr.SenderOwnsSent()
	payload := make([]float64, wireElems)
	for i := range payload {
		payload[i] = float64(i)
	}
	var t0 time.Time
	for i := 0; i < iters; i++ {
		if i == wireWarm {
			t0 = time.Now()
		}
		out := tensor.GetScratch(wireElems)
		out.CopyFrom(payload)
		tr.Send(0, 1, wireTagOut, out)
		if senderOwns {
			tensor.Recycle(out)
		}
		back, err := tr.Recv(0, 1, wireTagBack)
		if err != nil {
			return 0, err
		}
		tensor.Recycle(back)
	}
	elapsed := time.Since(t0).Seconds()
	bytes := float64(2*(iters-wireWarm)) * float64(wireElems*8)
	return bytes / elapsed / 1e9, nil
}

// pingPong is pingPongSender with an in-process echo peer on actor 1.
func pingPong(tr transport.Transport, iters int) (float64, error) {
	senderOwns := tr.SenderOwnsSent()
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			t, err := tr.Recv(1, 0, wireTagOut)
			if err != nil {
				errCh <- err
				return
			}
			tr.Send(1, 0, wireTagBack, t)
			if senderOwns {
				tensor.Recycle(t)
			}
		}
		errCh <- nil
	}()
	gbs, err := pingPongSender(tr, iters)
	if err != nil {
		return 0, err
	}
	if err := <-errCh; err != nil {
		return 0, err
	}
	return gbs, nil
}

// wirePeerMain is the child-process role: join the coordinator and echo.
// Entered via the hidden -wire-peer flag.
func wirePeerMain(coordinator string) {
	sess, err := dist.Join(coordinator, dist.SessionOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaxpp-bench -wire-peer:", err)
		os.Exit(1)
	}
	defer sess.Close()
	var iters int
	if err := json.Unmarshal(sess.Job, &iters); err != nil {
		fmt.Fprintln(os.Stderr, "jaxpp-bench -wire-peer:", err)
		os.Exit(1)
	}
	tr := sess.Transport
	for i := 0; i < iters; i++ {
		t, err := tr.Recv(1, 0, wireTagOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-bench -wire-peer:", err)
			os.Exit(1)
		}
		tr.Send(1, 0, wireTagBack, t)
		tensor.Recycle(t)
	}
	if err := sess.Barrier(); err != nil {
		fmt.Fprintln(os.Stderr, "jaxpp-bench -wire-peer:", err)
		os.Exit(1)
	}
}

// measureMultiProc re-execs this binary as the echo peer and measures the
// cross-process wire path. Picking a coordinator port by probing :0 and
// closing the probe is inherently racy (another process can bind it before
// Coordinate does), so a failed rendezvous retries on a fresh port instead
// of flaking the snapshot.
func measureMultiProc() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	job, _ := json.Marshal(wireIters)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		addr := ln.Addr().String()
		ln.Close()

		child := exec.Command(self, "-wire-peer", addr)
		child.Stderr = os.Stderr
		if err := child.Start(); err != nil {
			return 0, err
		}
		sess, err := dist.Coordinate(addr, 2, job, dist.SessionOptions{RendezvousTimeout: 30 * time.Second})
		if err != nil {
			child.Process.Kill()
			child.Wait()
			lastErr = err
			continue
		}
		gbs, err := pingPongSender(sess.Transport, wireIters)
		if err == nil {
			err = sess.Barrier()
		}
		sess.Close()
		child.Wait()
		if err != nil {
			return 0, err
		}
		return gbs, nil
	}
	return 0, lastErr
}

// wireCollectiveRanks/Elems size the wire-collective tier: 8 TCP endpoints
// (the CI smoke's world) ring-all-reducing 2 MiB per rank.
const (
	wireCollectiveRanks = 8
	wireCollectiveElems = 1 << 18
)

// measureWireCollective times a bucketed ring AllReduce across TCP
// endpoints inside one process and converts the steady-state duration to
// bus bandwidth, verifying the reduction on the way (integer payloads sum
// exactly).
func measureWireCollective(n, elems int) (float64, error) {
	mesh, err := dist.NewLocalMesh(n, dist.Options{})
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	dur, out, err := collective.MeasureAllReduce(mesh, n, elems, collective.DefaultBucketBytes)
	if err != nil {
		return 0, fmt.Errorf("wire collective: %w", err)
	}
	want := float64(n * (n + 1) / 2) // MeasureAllReduce ranks contribute r+1
	if got := out.Data()[0]; got != want {
		return 0, fmt.Errorf("wire collective: reduced value %v, want %v", got, want)
	}
	bus := 2 * float64(n-1) / float64(n) * float64(elems*8)
	return bus / dur.Seconds() / 1e9, nil
}

// measureWire runs all four tiers. The multi-process tier degrades to an
// error note instead of failing the snapshot (sandboxes may forbid exec).
func measureWire() (*wireStats, error) {
	s := &wireStats{}
	var err error
	if s.ChanTransportGBs, err = pingPong(runtime.NewChanTransport(), wireIters); err != nil {
		return nil, fmt.Errorf("chan transport: %w", err)
	}
	mesh, err := dist.NewLocalMesh(2, dist.Options{})
	if err != nil {
		return nil, err
	}
	s.TCPLocalGBs, err = pingPong(mesh, wireIters)
	mesh.Close()
	if err != nil {
		return nil, fmt.Errorf("tcp local mesh: %w", err)
	}
	if gbs, err := measureMultiProc(); err != nil {
		s.MultiProcErr = err.Error()
	} else {
		s.TCPMultiProcGBs = gbs
	}
	s.CollectiveRanks = wireCollectiveRanks
	if s.CollectiveBusGBs, err = measureWireCollective(wireCollectiveRanks, wireCollectiveElems); err != nil {
		return nil, err
	}
	if s.DTypeTiers, err = measureWireTiers(); err != nil {
		return nil, err
	}
	return s, nil
}

// shapedValidation is the degraded-network calibration check: the same
// executed-vs-analytic comparison as collective_validation, but over links
// shaped with real latency and a bandwidth cap — validating that the
// calibration model's prediction still tracks execution when the network is
// slow, not just on localhost.
type shapedValidation struct {
	Ranks         int     `json:"ranks"`
	Elems         int     `json:"elems"`
	Shape         string  `json:"shape"`
	LinkGBs       float64 `json:"link_gbs"`
	LinkLatencyUs float64 `json:"link_latency_us"`
	ExecutedMs    float64 `json:"executed_ms"`
	AnalyticMs    float64 `json:"analytic_ms"`
	Ratio         float64 `json:"ratio"`
}

// shapedMesh routes each actor's sends through its own link shaper over a
// shared LocalMesh (which still serves Recv, Err and Poison), so a whole
// in-process world sees the modeled network.
type shapedMesh struct {
	*dist.LocalMesh
	eps []*dist.ShapedTransport
}

func newShapedMesh(n int, opts dist.ShapeOpts) (*shapedMesh, error) {
	mesh, err := dist.NewLocalMesh(n, dist.Options{})
	if err != nil {
		return nil, err
	}
	m := &shapedMesh{LocalMesh: mesh}
	for r := 0; r < n; r++ {
		m.eps = append(m.eps, dist.NewShapedTransport(mesh.Endpoint(r), opts))
	}
	return m, nil
}

func (m *shapedMesh) Send(from, to, tag int, t *tensor.Tensor) { m.eps[from].Send(from, to, tag, t) }

func (m *shapedMesh) Close() {
	for _, ep := range m.eps {
		ep.Stop()
	}
	m.LocalMesh.Close()
}

// validateShaped calibrates a shaped link pair, measures a bucketed ring
// AllReduce over a shaped 4-rank mesh, and compares against the analytic
// prediction under the calibrated link. The shape adds enough latency that
// both numbers are dominated by the modeled network rather than goroutine
// scheduling — which is exactly why the prediction must track execution
// here if the calibration model is to be trusted off-localhost.
func validateShaped(shape dist.ShapeOpts) (*shapedValidation, error) {
	const ranks, elems = 4, 1 << 18
	m, err := newShapedMesh(ranks, shape)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	link := collective.Calibrate(m, 0, 1)
	measured, out, err := collective.MeasureAllReduce(m, ranks, elems, collective.DefaultBucketBytes)
	if err != nil {
		return nil, fmt.Errorf("shaped collective: %w", err)
	}
	// Shaping delays frames but never alters payload bits: the f64 reduction
	// must still verify exactly.
	if want := float64(ranks * (ranks + 1) / 2); out.Data()[0] != want {
		return nil, fmt.Errorf("shaped collective: reduced value %v, want %v", out.Data()[0], want)
	}
	predicted := collective.PredictBucketedAllReduce(collective.RingLink(link, ranks), []int{elems}, ranks, collective.DefaultBucketBytes)
	return &shapedValidation{
		Ranks:         ranks,
		Elems:         elems,
		Shape:         shape.String(),
		LinkGBs:       link.BwGBs,
		LinkLatencyUs: link.Latency * 1e6,
		ExecutedMs:    measured.Seconds() * 1e3,
		AnalyticMs:    predicted * 1e3,
		Ratio:         measured.Seconds() / predicted,
	}, nil
}
