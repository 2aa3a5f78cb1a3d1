// Package transport holds the one point-to-point contract every actor,
// pipeline send, and collective ring hop in this repo runs over — the role
// NCCL P2P plays in the paper — and the one tag-matched mailbox registry
// (Inbox) its implementations are built on. It is a leaf: it imports only
// package tensor, so runtime, collective, dist and distrun all share this
// declaration without cycles.
//
// Implementations, all asserted in conformance_test.go, by what Send does
// with the tensor and what SendLent does with the payload it is lent (Settle
// has something to wait for only where a payload is borrowed):
//
//	runtime.ChanTransport        in-process, capacity-1 mailboxes   passes the reference   sends a pooled copy
//	runtime.RendezvousTransport  in-process, capacity-0 (Fig. 5)    passes the reference   sends a pooled copy
//	dist.Transport               one TCP endpoint per process       serializes             borrows: a large f64 payload goes to the socket from where it lies
//	dist.LocalMesh               n dist.Transport in one process    serializes             borrows, as its endpoints do
//
// A dist.Transport link shaped into a modeled network (SetShape) still
// serializes; its sender worker then delays the encoded frame, and it copies
// what it is lent instead of borrowing.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Transport is asynchronous, tag-matched point-to-point messaging between
// actors. Messages under one (from, to, tag) triple are delivered in FIFO
// order; tags are reused (pipeline tags every step, collective tag windows
// every few operations), and a mailbox holds at most one unconsumed message,
// so a sender that laps its receiver backpressures instead of queueing. On
// the wire a peer's messages share one stream, so a message held behind a
// full mailbox also holds everything that peer sent after it: receivers
// consume each peer's tags in an order its send order allows (the pipeline
// compiler's communication ordering and the collective contract both do).
type Transport interface {
	// Send delivers t from actor `from` to actor `to` under tag. It never
	// blocks indefinitely on a healthy receiver, and by the time it returns
	// the transport has moved or captured t — nothing reads t on the sender's
	// behalf afterwards. From Send on, t is read-only to the sender until the
	// step ends, and never the sender's to recycle: it may be the receiver's
	// object (a reference-passing transport delivers the very tensor, a
	// serializing one a copy, and a sender does not get to know which). A
	// sender that wants its storage back lends it: SendLent + Settle.
	Send(from, to, tag int, t *tensor.Tensor)
	// SendLent delivers the elements of payload, as a flat tensor the receiver
	// owns, from actor `from` to actor `to` under tag, in FIFO order with that
	// pair's Sends. Like Send it does not wait for the receiver; unlike Send it
	// takes no ownership and need not copy: payload stays the caller's
	// storage, and the transport may go on reading it — a socket write straight
	// from it may still be in flight — until a Settle(from, to) called after
	// this SendLent returns. Until then the caller must not write payload,
	// recycle it, or hand it to anything that would; reading it, or lending it
	// again, is fine.
	SendLent(from, to, tag int, payload []float64)
	// Settle blocks until the transport no longer references any payload lent
	// from `from` to `to` before the call, and returns nil, or the poison
	// error if the transport has failed. A dead or wedged peer cannot hold a
	// lender: on a poisoned or closed transport Settle gives up on the
	// transfers and returns as soon as the payloads are out of the transport's
	// hands. Whenever it returns, they are the caller's to write again. With
	// nothing outstanding it costs a few loads.
	Settle(from, to int) error
	// Recv blocks until the matching Send and returns its payload, which the
	// receiver now owns (Recycle it or hand it on). It fails with the poison
	// error once the transport is poisoned, and with a timeout error naming
	// actor, peer and tag when no matching send arrives in time. A timeout
	// does NOT poison: the mailbox stays registered, so a late sender still
	// completes against it and other tags keep working.
	Recv(to, from, tag int) (*tensor.Tensor, error)
	// Err returns the poison error, or nil while the transport is healthy.
	Err() error
	// Poison records the first transport-level failure (a dropped payload, a
	// dead peer, a corrupt stream, a failed co-actor) and fails every blocked
	// and future Recv with it, immediately: after a lost message, tag reuse
	// could silently match a later payload to an earlier receive. Idempotent;
	// later errors are dropped. A poisoned transport never recovers — the
	// cluster is re-provisioned.
	Poison(err error)
}

// DefaultRecvTimeout bounds how long a receive waits for its matching send
// before reporting a mismatched tag, a stalled peer, or a communication
// deadlock as an error. No legitimate receive waits anywhere near this long,
// and an error beats a hung process.
const DefaultRecvTimeout = 30 * time.Second

// Key names one mailbox.
type Key struct{ From, To, Tag int }

// numShards spreads the registry over independently locked shards so
// concurrent actors never serialize on one mutex. Must be a power of two.
const numShards = 32

type shard struct {
	mu  sync.Mutex
	chs map[Key]chan *tensor.Tensor
	// Pad to a 64-byte cache line (8 B mutex + 8 B map + 48 B) so
	// neighbouring locks don't false-share under contention.
	_ [48]byte
}

func (k Key) shard() int {
	h := uint64(k.From)*0x9e3779b97f4a7c15 ^ uint64(k.To)*0xbf58476d1ce4e5b9 ^ uint64(k.Tag)*0x94d049bb133111eb
	h ^= h >> 29
	return int(h & (numShards - 1))
}

// Inbox is the sharded registry of persistent tag-matched mailboxes plus the
// poison state, shared by every implementation. A mailbox is a channel
// created lazily by whichever side arrives first and kept registered for
// good, so tag reuse rebinds the same channel and steady-state traffic
// allocates nothing.
type Inbox struct {
	shards   [numShards]shard
	capacity int

	err  atomic.Pointer[error]
	dead chan struct{} // closed by the first Poison; wakes blocked Put and Get
}

// NewInbox returns an empty inbox whose mailboxes buffer capacity messages:
// 1 makes sends asynchronous, 0 makes every send a rendezvous with its
// receive.
func NewInbox(capacity int) *Inbox {
	b := &Inbox{capacity: capacity, dead: make(chan struct{})}
	for i := range b.shards {
		b.shards[i].chs = map[Key]chan *tensor.Tensor{}
	}
	return b
}

func (b *Inbox) ch(k Key) chan *tensor.Tensor {
	s := &b.shards[k.shard()]
	s.mu.Lock()
	ch, ok := s.chs[k]
	if !ok {
		ch = make(chan *tensor.Tensor, b.capacity)
		s.chs[k] = ch
	}
	s.mu.Unlock()
	return ch
}

// timerPool recycles the timers blocking Puts and Gets arm, keeping both
// allocation-free (Go 1.23+ timers make Reset after Stop or expiry safe
// without draining).
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if timer, _ := timerPool.Get().(*time.Timer); timer != nil {
		timer.Reset(d)
		return timer
	}
	return time.NewTimer(d)
}

func putTimer(timer *time.Timer) {
	timer.Stop()
	timerPool.Put(timer)
}

// Put places t in mailbox k. If the previous message is still unconsumed it
// waits up to timeout (forever if timeout <= 0) for the receiver to drain it.
// A nil return means t is queued. Otherwise t was NOT delivered, the caller
// still owns it, and the caller must Poison its transport with the returned
// error: either the inbox died while waiting (the error is the poison error),
// or the receiver stalled or aborted and this payload is dropped.
func (b *Inbox) Put(k Key, t *tensor.Tensor, timeout time.Duration) error {
	ch := b.ch(k)
	select {
	case ch <- t:
		return nil
	default:
	}
	var expired <-chan time.Time // nil: never fires
	if timeout > 0 {
		timer := getTimer(timeout)
		defer putTimer(timer)
		expired = timer.C
	}
	select {
	case ch <- t:
		return nil
	case <-b.dead:
		return b.Err()
	case <-expired:
		return fmt.Errorf("transport: send from %d to %d tag %d dropped: mailbox still full after %v (receiver stalled or aborted, or tag aliased)", k.From, k.To, k.Tag, timeout)
	}
}

// Get takes the next message from mailbox k, waiting up to timeout (forever
// if timeout <= 0). A message already queued wins over any timeout; a
// poisoned inbox fails at once, even with messages queued.
func (b *Inbox) Get(k Key, timeout time.Duration) (*tensor.Tensor, error) {
	if err := b.Err(); err != nil {
		return nil, err
	}
	ch := b.ch(k)
	select {
	case t := <-ch:
		return t, nil
	default:
	}
	var expired <-chan time.Time // nil: never fires
	if timeout > 0 {
		timer := getTimer(timeout)
		defer putTimer(timer)
		expired = timer.C
	}
	select {
	case t := <-ch:
		return t, nil
	case <-b.dead:
		return nil, b.Err()
	case <-expired:
		return nil, fmt.Errorf("transport: recv on actor %d from %d tag %d timed out after %v: no matching send (mismatched tag, peer stall, or communication deadlock)", k.To, k.From, k.Tag, timeout)
	}
}

// ErrAwaitTimeout is Await's report that neither the event nor a poison
// arrived in time.
var ErrAwaitTimeout = errors.New("transport: await timed out")

// Await blocks until event delivers (nil), the inbox is poisoned (the poison
// error), or timeout passes (ErrAwaitTimeout; forever if timeout <= 0). It is
// the wait of Put and Get — pooled timer, woken by poison — for a condition
// other than a mailbox: a serializing transport's Settle waits on its sender
// worker with it.
func (b *Inbox) Await(event <-chan struct{}, timeout time.Duration) error {
	var expired <-chan time.Time // nil: never fires
	if timeout > 0 {
		timer := getTimer(timeout)
		defer putTimer(timer)
		expired = timer.C
	}
	select {
	case <-event:
		return nil
	case <-b.dead:
		return b.Err()
	case <-expired:
		return ErrAwaitTimeout
	}
}

// Poison implements Transport.Poison and reports whether this call was the
// one that poisoned (so an owner can log the cause exactly once).
func (b *Inbox) Poison(err error) bool {
	if err == nil || !b.err.CompareAndSwap(nil, &err) {
		return false
	}
	close(b.dead)
	return true
}

// Err implements Transport.Err.
func (b *Inbox) Err() error {
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Dead returns a channel closed by the first Poison, for selects that must
// not outlive the transport.
func (b *Inbox) Dead() <-chan struct{} { return b.dead }
