package runtime

import (
	"time"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// ChanTransport is the in-process transport.Transport: a transport.Inbox of
// capacity-1 mailboxes, one per (sender, receiver, tag) triple. The buffer
// slot plus unique live tags make steady-state sends non-blocking — the §4.2
// asynchrony of an in-process actor's send. What travels is a copy in pooled
// storage, made before Send returns, so the sender keeps what it sent and the
// receiver owns what it gets, exactly as over the wire.
type ChanTransport struct {
	inbox *transport.Inbox

	// RecvTimeout bounds every Recv; when it fires, Recv returns an error
	// instead of hanging forever on a tag no sender will ever match.
	// Zero or negative waits indefinitely. Set before actors start.
	RecvTimeout time.Duration

	// SendTimeout bounds a Send into a mailbox whose previous message was
	// never consumed — reachable when the receiving actor aborted its
	// program, or (pathologically) when it stalls longer than the timeout.
	// When it fires, the payload is dropped and the transport is poisoned.
	// Zero or negative waits indefinitely. Set before actors start.
	SendTimeout time.Duration
}

// NewChanTransport returns an empty in-process transport with the default
// timeouts.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{inbox: transport.NewInbox(1), RecvTimeout: transport.DefaultRecvTimeout, SendTimeout: transport.DefaultRecvTimeout}
}

// Send implements transport.Transport: it queues a pooled copy of t. A send
// that finds the mailbox still full backpressures up to SendTimeout for the
// receiver to drain it, then drops the copy and poisons the transport so the
// failure surfaces as errors on every actor instead of wedging this one or
// silently skewing tag matching.
func (c *ChanTransport) Send(from, to, tag int, t *tensor.Tensor) {
	c.put(from, to, tag, tensor.CloneScratch(t))
}

// SendLent implements transport.Transport: a mailbox cannot borrow, so what
// travels is a pooled copy, as with Send — exact, so residual is left alone.
func (c *ChanTransport) SendLent(from, to, tag int, payload, _ []float64) {
	cp := tensor.GetScratch(len(payload))
	cp.CopyFrom(payload)
	c.put(from, to, tag, cp)
}

// put queues cp, a copy this transport made, for the receiver.
func (c *ChanTransport) put(from, to, tag int, cp *tensor.Tensor) {
	if err := c.inbox.Put(transport.Key{From: from, To: to, Tag: tag}, cp, c.SendTimeout); err != nil {
		tensor.Recycle(cp) // never delivered: still ours
		c.inbox.Poison(err)
	}
}

// Settle implements transport.Transport: SendLent keeps no reference to what
// it was lent, so there is nothing to wait for.
func (c *ChanTransport) Settle(from, to int) error { return c.inbox.Err() }

// Recv implements transport.Transport.
func (c *ChanTransport) Recv(to, from, tag int) (*tensor.Tensor, error) {
	return c.inbox.Get(transport.Key{From: from, To: to, Tag: tag}, c.RecvTimeout)
}

// Err implements transport.Transport.
func (c *ChanTransport) Err() error { return c.inbox.Err() }

// Poison implements transport.Transport.
func (c *ChanTransport) Poison(err error) { c.inbox.Poison(err) }

// RendezvousTransport is a ChanTransport over capacity-0 mailboxes with no
// send timeout: a send blocks until the matching receive executes — the
// synchronous point-to-point semantics whose deadlock hazard §4.2 (Fig. 5)
// analyzes. Used by tests and the ablation to demonstrate that the naive
// communication ordering deadlocks while JaxPP's topological ordering and
// asynchronous sends do not: whether an actor's sends block is which
// transport its cluster was built on, nothing else. Receives still time out,
// so a deadlocked run reports an error instead of hanging.
type RendezvousTransport struct{ ChanTransport }

// NewRendezvousTransport returns an empty rendezvous transport with the
// default receive timeout.
func NewRendezvousTransport() *RendezvousTransport {
	return &RendezvousTransport{ChanTransport{inbox: transport.NewInbox(0), RecvTimeout: transport.DefaultRecvTimeout}}
}
