package transport_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Every implementation of the contract. The leaf package cannot import its
// implementers, so the assertions live in its test tree, which `go vet` and
// `go test` compile.
var (
	_ transport.Transport = (*runtime.ChanTransport)(nil)
	_ transport.Transport = (*runtime.RendezvousTransport)(nil)
	_ transport.Transport = (*dist.Transport)(nil)
	_ transport.Transport = (*dist.LocalMesh)(nil)
)

// impl opens a two-actor world with the given receive timeout. tr is the
// transport under test as actor 0 uses it; peer is actor 1's handle on the
// same world (the same object on every row).
type impl struct {
	name       string
	senderOwns bool // Send captures a copy (transport.go's table); false: it passes the reference
	rendezvous bool // sends block until received, so nothing is ever queued
	open       func(t *testing.T, recvTimeout time.Duration) (tr, peer transport.Transport)
}

func openMesh(t *testing.T, recvTimeout time.Duration) *dist.LocalMesh {
	mesh, err := dist.NewLocalMesh(2, dist.Options{RecvTimeout: recvTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh
}

var impls = []impl{
	{name: "chan", open: func(t *testing.T, d time.Duration) (transport.Transport, transport.Transport) {
		c := runtime.NewChanTransport()
		c.RecvTimeout = d
		return c, c
	}},
	{name: "rendezvous", rendezvous: true, open: func(t *testing.T, d time.Duration) (transport.Transport, transport.Transport) {
		r := runtime.NewRendezvousTransport()
		r.RecvTimeout = d
		return r, r
	}},
	{name: "localmesh", senderOwns: true, open: func(t *testing.T, d time.Duration) (transport.Transport, transport.Transport) {
		mesh := openMesh(t, d)
		return mesh, mesh
	}},
	{name: "shaped", senderOwns: true, open: func(t *testing.T, d time.Duration) (transport.Transport, transport.Transport) {
		mesh := openMesh(t, d)
		mesh.Endpoint(0).SetShape(dist.ShapeOpts{Latency: time.Millisecond, Seed: 1})
		return mesh, mesh
	}},
}

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

var properties = []struct {
	name string
	run  func(t *testing.T, im impl)
}{
	// One sender reuses two tags round after round. Messages match by tag,
	// not arrival (where sends queue, the receiver takes each round's second
	// message first), and each (from, to, tag) stream stays FIFO while its
	// one-slot mailbox backpressures the sender.
	{"tag matching and FIFO under tag reuse", func(t *testing.T, im impl) {
		tr, peer := im.open(t, 10*time.Second)
		const rounds, tagA, tagB = 20, 3, 4
		go func() {
			for i := 0; i < rounds; i++ {
				tr.Send(0, 1, tagA, tensor.Scalar(float64(100*tagA+i)))
				tr.Send(0, 1, tagB, tensor.Scalar(float64(100*tagB+i)))
			}
		}()
		order := []int{tagB, tagA}
		if im.rendezvous {
			order = []int{tagA, tagB} // any other order is the Fig. 5 deadlock
		}
		for i := 0; i < rounds; i++ {
			for _, tag := range order {
				got, err := peer.Recv(1, 0, tag)
				if err != nil {
					t.Fatal(err)
				}
				if want := float64(100*tag + i); got.Data()[0] != want {
					t.Fatalf("tag %d message %d carried %v, want %v", tag, i, got.Data()[0], want)
				}
			}
		}
	}},
	// A receive no send matches returns an error naming actor, peer and tag
	// instead of hanging, does not poison, and leaves the other tags working.
	{"recv timeout names the mailbox and does not poison", func(t *testing.T, im impl) {
		tr, peer := im.open(t, 50*time.Millisecond)
		go tr.Send(0, 1, 7, tensor.Scalar(1)) // async: a rendezvous send blocks until received
		within(t, 5*time.Second, "Recv on a tag nobody sends", func() {
			_, err := peer.Recv(1, 0, 8)
			if err == nil {
				t.Error("mismatched tag must produce an error")
				return
			}
			for _, want := range []string{"actor 1", "from 0", "tag 8", "deadlock"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("timeout error should contain %q: %v", want, err)
				}
			}
		})
		if err := peer.Err(); err != nil {
			t.Fatalf("a receive timeout must not poison: %v", err)
		}
		got, err := peer.Recv(1, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data()[0] != 1 {
			t.Fatalf("payload corrupted: %v", got)
		}
	}},
	{"a queued message wins over a tiny timeout", func(t *testing.T, im impl) {
		if im.rendezvous {
			t.Skip("a rendezvous send never queues")
		}
		tr, _ := im.open(t, time.Nanosecond)
		tr.Send(0, 0, 1, tensor.Scalar(42)) // self-send: queued before Send returns on every implementation
		got, err := tr.Recv(0, 0, 1)
		if err != nil {
			t.Fatalf("queued send must win over a tiny timeout: %v", err)
		}
		if got.Data()[0] != 42 {
			t.Fatalf("payload corrupted: %v", got)
		}
	}},
	{"poison wakes blocked receivers and fails future ones with the first error", func(t *testing.T, im impl) {
		tr, _ := im.open(t, 30*time.Second)
		first, second := errors.New("first failure"), errors.New("second failure")
		blocked := make(chan error, 1)
		go func() {
			_, err := tr.Recv(0, 1, 9)
			blocked <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the receive block; poisoning first is also legal
		tr.Poison(first)
		tr.Poison(second)
		select {
		case err := <-blocked:
			if !errors.Is(err, first) {
				t.Fatalf("blocked Recv returned %v, want the first poison error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Poison did not wake a blocked Recv")
		}
		if _, err := tr.Recv(0, 1, 10); !errors.Is(err, first) {
			t.Fatalf("Recv after poison returned %v, want the first poison error", err)
		}
		if err := tr.Err(); !errors.Is(err, first) {
			t.Fatalf("Err() = %v, want the first poison error", err)
		}
	}},
	// Serializing transports have captured the payload when Send returns: a
	// scribble on the tensor afterwards (which the contract forbids a sender,
	// who cannot know) does not reach the receiver. Reference-passing: the
	// receiver gets the very tensor that was sent.
	{"Send passes the reference or captures a copy", func(t *testing.T, im impl) {
		tr, peer := im.open(t, 10*time.Second)
		sent := tensor.New(3)
		sent.CopyFrom([]float64{1, 2, 3})
		returned := make(chan struct{})
		go func() {
			tr.Send(0, 1, 11, sent)
			if im.senderOwns {
				sent.Data()[0] = -1
			}
			close(returned)
		}()
		if im.senderOwns {
			<-returned
		}
		got, err := peer.Recv(1, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		<-returned
		if im.senderOwns == (got == sent) {
			t.Fatalf("receiver got the sent tensor itself = %v, want %v", got == sent, !im.senderOwns)
		}
		if d := got.Data(); len(d) != 3 || d[0] != 1 || d[1] != 2 || d[2] != 3 {
			t.Fatalf("payload corrupted: %v", d)
		}
	}},
	// A lent payload arrives as a flat copy in FIFO order with the pair's
	// Sends, is never the receiver's, and is the lender's to write again once
	// Settle has returned — whether it was small enough to be copied or large
	// enough for a serializing transport to hand the socket the lender's own
	// storage.
	{"a lent payload arrives as a copy and is the lender's again after Settle", func(t *testing.T, im impl) {
		tr, peer := im.open(t, 10*time.Second)
		for _, n := range []int{0, 3, 1 << 15} {
			lent := make([]float64, n)
			for i := range lent {
				lent[i] = float64(i + 1)
			}
			settled := make(chan error, 1)
			go func() { // async: a rendezvous send blocks until received
				tr.SendLent(0, 1, 12, lent)
				tr.Send(0, 1, 12, tensor.Scalar(-1))
				err := tr.Settle(0, 1)
				for i := range lent {
					lent[i] = -7 // the lender's again
				}
				settled <- err
			}()
			got, err := peer.Recv(1, 0, 12)
			if err != nil {
				t.Fatal(err)
			}
			after, err := peer.Recv(1, 0, 12)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-settled; err != nil {
				t.Fatalf("Settle on a healthy transport: %v", err)
			}
			if !got.HasShape([]int{n}) {
				t.Fatalf("lent payload of %d elements arrived with shape %v", n, got.Shape())
			}
			for i, v := range got.Data() {
				if v != float64(i+1) {
					t.Fatalf("%d elements: element %d arrived as %v, want %v", n, i, v, float64(i+1))
				}
			}
			if n > 0 && &got.Data()[0] == &lent[0] {
				t.Fatal("the receiver was handed the lender's storage")
			}
			if after.Size() != 1 || after.Data()[0] != -1 {
				t.Fatalf("the Send after a SendLent overtook it: %v", after)
			}
			tensor.Recycle(got)
		}
		if err := tr.Settle(0, 1); err != nil {
			t.Fatalf("Settle with nothing lent: %v", err)
		}
	}},
	{"Settle on a poisoned transport returns the poison error", func(t *testing.T, im impl) {
		tr, _ := im.open(t, 10*time.Second)
		cause := errors.New("the cause")
		tr.Poison(cause)
		within(t, 5*time.Second, "Settle after Poison", func() {
			if err := tr.Settle(0, 1); !errors.Is(err, cause) {
				t.Errorf("Settle returned %v, want the poison error", err)
			}
		})
	}},
}

// TestConformance runs every property of the Transport contract against
// every implementation.
func TestConformance(t *testing.T) {
	for _, im := range impls {
		for _, p := range properties {
			t.Run(im.name+"/"+p.name, func(t *testing.T) { p.run(t, im) })
		}
	}
}

// TestBlockedRecvDoesNotAllocate pins the pooled timeout timers: a Recv that
// blocks briefly before its matching send performs no allocation.
func TestBlockedRecvDoesNotAllocate(t *testing.T) {
	c := runtime.NewChanTransport()
	ten := tensor.Scalar(1)
	kick := make(chan struct{})
	defer close(kick)
	go func() {
		for range kick {
			time.Sleep(200 * time.Microsecond)
			c.Send(0, 1, 5, ten)
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		kick <- struct{}{}
		if _, err := c.Recv(1, 0, 5); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("blocking Recv allocates %.0f objects per call, want 0", allocs)
	}
}
