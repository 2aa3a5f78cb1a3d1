//go:build unix

package dist

import (
	"io"
	"net"
	goruntime "runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestFrameLeavesBeforeSendReturns: with one P, a frame is on the socket by
// the time Send returns — the sender worker wrote it while the caller yielded
// — so a peer's non-blocking read finds the whole frame before the caller
// does anything else. The yield is not a guarantee (the scheduler takes from
// the global run queue first now and then), so the test counts frames rather
// than requiring every one.
func TestFrameLeavesBeforeSendReturns(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	ln := rawPeer(t)
	tr := link0to1(t, Options{RecvTimeout: time.Minute}, ln.Addr().String())
	x := tensor.New(1024)
	frame := EncodeFrame(&Header{Kind: frameData, From: 0, To: 1, Tag: 5, DType: DTF64, Shape: []int{1024}}, x.Data(), false)

	tr.Send(0, 1, 5, x) // dials the link; the hello goes first
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	if _, err := io.ReadFull(conn, make([]byte, len(controlFrame(frameHello, 0, 1))+len(frame))); err != nil {
		t.Fatal(err)
	}
	raw, err := conn.(*net.UnixConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}

	const sends = 200
	buf := make([]byte, len(frame))
	left := 0
	for i := 0; i < sends; i++ {
		tr.Send(0, 1, 5, x)
		n := 0
		if err := raw.Read(func(fd uintptr) bool {
			n, _ = syscall.Read(int(fd), buf)
			return true // one try: what is readable now, without waiting
		}); err != nil {
			t.Fatal(err)
		}
		n = max(n, 0)
		if n == len(frame) {
			left++
		}
		if _, err := io.ReadFull(conn, buf[n:]); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d of %d frames readable when Send returned", left, sends)
	if left < sends*9/10 {
		t.Fatal("want at least 90% of the frames on the socket when Send returns")
	}
}

// TestYieldOnlyAloneOnOneP: the yield is decided when an endpoint is made.
// One made at GOMAXPROCS 1 yields; one made with two Ps does not, and
// neither do the endpoints of a LocalMesh, whose ranks share the process's P.
func TestYieldOnlyAloneOnOneP(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	alone, err := NewTransport(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	mesh, err := NewLocalMesh(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	goruntime.GOMAXPROCS(2)
	twoPs, err := NewTransport(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer twoPs.Close()
	if !alone.yield || twoPs.yield || mesh.Endpoint(0).yield || mesh.Endpoint(1).yield {
		t.Fatalf("yield: alone at 1 P %v (want true), at 2 Ps %v, LocalMesh %v %v (want false)",
			alone.yield, twoPs.yield, mesh.Endpoint(0).yield, mesh.Endpoint(1).yield)
	}
}
