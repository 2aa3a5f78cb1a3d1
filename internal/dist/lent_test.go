package dist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/tensor"
)

// rawPeer is a listener standing in for a peer endpoint, on the socket kind a
// transport listens on: whatever a transport writes to it can be read back
// byte for byte, or left unread.
func rawPeer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := listenUnix()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// link0to1 opens rank 0 of a two-rank book whose rank 1 is peerAddr.
func link0to1(t *testing.T, opts Options, peerAddr string) *Transport {
	t.Helper()
	tr, err := NewTransport(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.Connect(map[int]string{0: tr.Addr(), 1: peerAddr})
	return tr
}

// lentCounts reads the lent-send accounting of rank 0's link to peer 1: how
// many payloads SendLent queued on it and how many the sender worker has let
// go of.
func lentCounts(tr *Transport) (lent, released int64) {
	tr.mu.Lock()
	pl := tr.peers[1]
	tr.mu.Unlock()
	if pl == nil {
		return 0, 0
	}
	return pl.lent.Load(), pl.released.Load()
}

// lentOutstanding is how many lent payloads the sender worker still
// references.
func lentOutstanding(tr *Transport) int64 {
	lent, released := lentCounts(tr)
	return lent - released
}

// goroutinesBackTo gives goroutines that are on their way out five seconds to
// go, and returns the count it is left with (at most before, when none leaked).
func goroutinesBackTo(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return goruntime.NumGoroutine()
}

// TestLentFrameIsEncodeFrameOnTheWire is the byte-identity of the two send
// paths: a payload that goes out header + borrowed image + trailer in one
// vectored write puts on the socket exactly the bytes EncodeFrame returns for
// it, CRC on and off — which is what keeps wire byte counts, checkpoint
// fixtures and mixed-version worlds where they were.
func TestLentFrameIsEncodeFrameOnTheWire(t *testing.T) {
	data := make([]float64, 1500)
	for i := range data {
		data[i] = math.Sin(float64(i)) * 1e3
	}
	copy(data, []float64{0, math.Copysign(0, -1), 5e-324, math.Inf(-1), math.Float64frombits(0x7ff8_dead_beef_0001)})
	for _, crc := range []bool{false, true} {
		ln := rawPeer(t)
		tr := link0to1(t, Options{CRC: crc}, ln.Addr().String())
		tr.SendLent(0, 1, 5, data, nil)
		if lent, _ := lentCounts(tr); f64Image(data) != nil && lent != 1 {
			t.Fatal("a 12 KB f64 payload did not take the lent path")
		}
		tr.Send(0, 1, 5, tensor.MustFromSlice(data, len(data)))
		if err := tr.Settle(0, 1); err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := controlFrame(frameHello, 0, 1)
		want := EncodeFrame(&Header{Kind: frameData, From: 0, To: 1, Tag: 5, DType: DTF64, Shape: []int{len(data)}}, data, crc)
		got := make([]byte, len(hello)+2*len(want))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		got = got[len(hello):]
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("crc %v: the lent frame differs from EncodeFrame's", crc)
		}
		if !bytes.Equal(got[len(want):], want) {
			t.Fatalf("crc %v: the sent frame differs from EncodeFrame's", crc)
		}
	}
}

// TestFedFrameIsEncodeFrameOfTheSum is the byte-identity of error feedback on
// the wire: an int8q lent send with a residual puts on the socket exactly
// the frame EncodeFrame makes of payload + residual, and one without a
// residual exactly EncodeFrame's frame of the payload — CRC on and off.
func TestFedFrameIsEncodeFrameOfTheSum(t *testing.T) {
	data, res := make([]float64, 1500), make([]float64, 1500)
	sum := make([]float64, len(data))
	for i := range data {
		data[i] = math.Sin(float64(i)) * 1e3
		res[i] = math.Cos(float64(i))
		sum[i] = res[i] + data[i]
	}
	for _, crc := range []bool{false, true} {
		ln := rawPeer(t)
		tr := link0to1(t, Options{CRC: crc, DType: DTInt8Q}, ln.Addr().String())
		tr.SendLent(0, 1, 5, data, nil)
		fed := slices.Clone(res)
		tr.SendLent(0, 1, 5, data, fed)
		if err := tr.Settle(0, 1); err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		h := Header{Kind: frameData, From: 0, To: 1, Tag: 5, DType: DTInt8Q, Shape: []int{len(data)}}
		hello := controlFrame(frameHello, 0, 1)
		unfed, want := EncodeFrame(&h, data, crc), EncodeFrame(&h, sum, crc)
		got := make([]byte, len(hello)+len(unfed)+len(want))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		got = got[len(hello):]
		if !bytes.Equal(got[:len(unfed)], unfed) {
			t.Fatalf("crc %v: the frame without a residual differs from EncodeFrame's", crc)
		}
		if !bytes.Equal(got[len(unfed):], want) {
			t.Fatalf("crc %v: the fed frame differs from EncodeFrame's frame of payload + residual", crc)
		}
		if slices.Equal(fed, res) {
			t.Fatalf("crc %v: the fed send left the residual as it was", crc)
		}
	}
}

// lend16MiB lends sixteen 1 MiB payloads from rank 0 to peer 1 under one tag,
// twice what a link's send buffer holds (Linux grants linkSendBuffer and
// reports double). A peer that reads nothing, or an endpoint whose reader
// stalls on the second of them (the first still sits in its one-slot
// mailbox), leaves the sender worker blocked in a socket write with about
// half of them queued behind it.
func lend16MiB(tr *Transport) [][]float64 {
	payloads := make([][]float64, 4*linkSendBuffer>>20)
	for i := range payloads {
		payloads[i] = make([]float64, 1<<17)
		tr.SendLent(0, 1, 100, payloads[i], nil)
	}
	return payloads
}

// settleWithin runs Settle(0, 1) and fails the test if it takes longer than
// the bound TestWorkerDeathPoisonsTransport gives a blocked Recv.
func settleWithin(t *testing.T, tr *Transport) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tr.Settle(0, 1) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Settle still blocked 10 s after the transport failed")
		return nil
	}
}

// TestSettleSurvivesAPeerThatStopsReading: 16 MiB lent to a peer that accepted
// the connection and then takes nothing. The worker is wedged in a socket
// write; a poison — what the heartbeat plane delivers when a peer is declared
// dead — must get Settle back promptly with that error, and with every
// payload out of the worker's hands, so the lender may scribble on them.
func TestSettleSurvivesAPeerThatStopsReading(t *testing.T) {
	ln := rawPeer(t)
	tr := link0to1(t, Options{RecvTimeout: time.Minute}, ln.Addr().String())
	payloads := lend16MiB(tr)
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if f64Image(payloads[0]) != nil {
		time.Sleep(50 * time.Millisecond) // let the worker fill the socket buffers
		if lentOutstanding(tr) == 0 {
			t.Fatal("16 MiB went into a socket nobody reads; the test no longer wedges the worker")
		}
	}
	cause := errors.New("coordinator reported failure: rank 1 died")
	tr.Poison(cause)
	if err := settleWithin(t, tr); !errors.Is(err, cause) {
		t.Fatalf("Settle returned %v, want the poison error", err)
	}
	if n := lentOutstanding(tr); n != 0 {
		t.Fatalf("Settle returned with %d lent payloads still referenced by the sender worker", n)
	}
	for _, p := range payloads {
		clear(p) // under -race, a worker still reading would be reported here
	}
}

// TestSettleTimesOutOnAWedgedPeer is the same wedge with nobody to poison:
// Settle gives the peer RecvTimeout, then poisons the transport itself, the
// way a delivery into a stalled mailbox does.
func TestSettleTimesOutOnAWedgedPeer(t *testing.T) {
	if f64Image([]float64{1}) == nil {
		t.Skip("this build copies every payload; nothing is ever lent")
	}
	ln := rawPeer(t)
	tr := link0to1(t, Options{RecvTimeout: 200 * time.Millisecond}, ln.Addr().String())
	lend16MiB(tr)
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = settleWithin(t, tr)
	if err == nil || tr.Err() == nil {
		t.Fatalf("Settle returned %v and left the transport healthy; 16 MiB are lent to a peer that reads nothing", err)
	}
	if n := lentOutstanding(tr); n != 0 {
		t.Fatalf("Settle returned with %d lent payloads still referenced by the sender worker", n)
	}
}

// TestSettleSurvivesAnAbortedPeer: the peer endpoint dies the way a SIGKILLed
// process does, with 16 MiB lent to it. The writes fail, the failure poisons,
// Settle reports it — and after Close no sender worker is left behind.
func TestSettleSurvivesAnAbortedPeer(t *testing.T) {
	before := goruntime.NumGoroutine()
	a, err := NewTransport(0, Options{RecvTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTransport(1, Options{RecvTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	book := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.Connect(book)
	b.Connect(book)
	// b's reader takes two frames (one into tag 100's mailbox, one in hand)
	// and stalls; the link's socket buffers about half of 16 MiB, so the same
	// payloads are lent four times over to be sure some are still in the
	// worker's hands when b dies.
	payloads := lend16MiB(a)
	for i := 0; i < 3; i++ {
		for _, p := range payloads {
			a.SendLent(0, 1, 100, p, nil)
		}
	}
	if f64Image(payloads[0]) != nil {
		time.Sleep(50 * time.Millisecond) // let b's reader stall and a's worker fill the socket buffers
		if lentOutstanding(a) == 0 {
			t.Fatal("64 MiB went through to a peer that consumes nothing; the test no longer wedges the worker")
		}
	}
	b.Abort()
	// A killed process takes its goroutines with it; in-process, b's reader is
	// parked on the full mailbox, not on the conn, and needs the poison to go.
	b.Poison(errors.New("killed"))
	err = settleWithin(t, a)
	if lending := f64Image(payloads[0]) != nil; lending && (err == nil || a.Err() == nil) {
		t.Fatalf("Settle returned %v after the peer was aborted with payloads lent to it", err)
	}
	if n := lentOutstanding(a); n != 0 {
		t.Fatalf("Settle returned with %d lent payloads still referenced by the sender worker", n)
	}
	for _, p := range payloads {
		clear(p)
	}
	a.Close()
	if after := goroutinesBackTo(before); after > before {
		t.Fatalf("%d goroutines before, %d after Close: a sender worker or reader leaked", before, after)
	}
}
