package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestSendTimeoutPoisonsTransport pins the bounded-send behaviour of the
// persistent-mailbox transport: a send into a mailbox whose previous message
// was never consumed (the receiver aborted or stalled) must drop after
// SendTimeout instead of wedging the sending actor, and the drop must poison
// the transport — after it, tag matching can no longer be trusted, so every
// Recv errors.
func TestSendTimeoutPoisonsTransport(t *testing.T) {
	c := NewChanTransport()
	c.SendTimeout = 20 * time.Millisecond
	c.Send(0, 1, 7, tensor.Scalar(1)) // fills the mailbox; the receiver aborted
	done := make(chan struct{})
	go func() {
		c.Send(0, 1, 7, tensor.Scalar(2)) // tag reuse against the full mailbox
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send hung on a full mailbox with an aborted receiver")
	}
	if _, err := c.Recv(1, 0, 7); err == nil {
		t.Fatal("Recv succeeded on a poisoned transport")
	}
}

// TestSendAfterConsumeDoesNotBlock checks the steady-state contract: once a
// mailbox's message is consumed, reusing its tag sends without blocking.
func TestSendAfterConsumeDoesNotBlock(t *testing.T) {
	c := NewChanTransport()
	c.SendTimeout = time.Second
	for i := 0; i < 100; i++ {
		c.Send(2, 3, 9, tensor.Scalar(float64(i)))
		got, err := c.Recv(3, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data()[0] != float64(i) {
			t.Fatalf("iteration %d delivered %v", i, got.Data()[0])
		}
	}
}

// TestSendTimeoutWakesBlockedRecv pins the shared poison state: a receive
// already blocked when a send times out and drops its payload fails with the
// poison error at once, not at its own (30 s default) RecvTimeout.
func TestSendTimeoutWakesBlockedRecv(t *testing.T) {
	c := NewChanTransport()
	c.SendTimeout = 20 * time.Millisecond
	blocked := make(chan error, 1)
	go func() {
		_, err := c.Recv(3, 2, 1) // a healthy mailbox nobody has sent to yet
		blocked <- err
	}()
	c.Send(0, 1, 7, tensor.Scalar(1)) // fills the mailbox; the receiver aborted
	c.Send(0, 1, 7, tensor.Scalar(2)) // times out, drops, poisons
	poisoned := time.Now()
	select {
	case err := <-blocked:
		if err == nil || err != c.Err() {
			t.Fatalf("blocked Recv returned %v, want the poison error %v", err, c.Err())
		}
		if late := time.Since(poisoned); late > 100*time.Millisecond {
			t.Fatalf("blocked Recv woke %v after the poisoning send-timeout, want < 100ms", late)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Recv slept through the poisoning send-timeout")
	}
}

// countingTransport counts the sends and the elements handed to the
// transport it wraps.
type countingTransport struct {
	transport.Transport
	sends, elems atomic.Int64
}

func (c *countingTransport) Send(from, to, tag int, t *tensor.Tensor) {
	c.sends.Add(1)
	c.elems.Add(int64(t.Size()))
	c.Transport.Send(from, to, tag, t)
}

func (c *countingTransport) SendLent(from, to, tag int, payload, residual []float64) {
	c.sends.Add(1)
	c.elems.Add(int64(len(payload)))
	c.Transport.SendLent(from, to, tag, payload, residual)
}
