package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mailbox is the sender-worker primitive behind the §4.2 deadlock-freedom
// guarantee at process scale: one persistent worker goroutine drains a
// non-blocking multi-producer queue, so initiating a send never blocks the
// caller (the actor's compute thread) no matter how slow the destination is.
// One mailbox serves one outgoing connection, so a stalled destination backpressures only its own queue, never
// head-of-line blocking traffic to other peers.
//
// Put never blocks: items append to a growable queue whose backing arrays
// are reused once the worker drains them, so steady-state traffic enqueues
// with zero allocations. DefaultMailboxBound caps outstanding items as a
// backstop against leaks (a correct program's outstanding sends are bounded
// by its instruction program).
type Mailbox[T any] struct {
	mu      sync.Mutex
	queue   []T
	standby []T // drained buffer waiting to become the next queue
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	stopped bool
	bound   int
	// inflight counts items the worker has swapped out of queue but not yet
	// pushed through the sink. Set under mu at swap time, decremented per
	// item without mu — so Len (queue + inflight) never momentarily drops to
	// zero while a drained batch is still being sunk, and the queue-depth
	// gauge reads consistently under the race detector during teardown.
	inflight atomic.Int64
}

// DefaultMailboxBound is the outstanding-item cap: far above any real
// program's in-flight send count, low enough that a producer leak fails
// loudly instead of consuming all memory.
const DefaultMailboxBound = 1 << 20

// NewMailbox starts a worker goroutine that calls sink for every item in
// enqueue order. sink runs on the worker; it may block (a slow destination)
// without affecting producers. bound <= 0 uses DefaultMailboxBound.
func NewMailbox[T any](bound int, sink func(T)) *Mailbox[T] {
	return NewMailboxDrain(bound, sink, nil)
}

// NewMailboxDrain is NewMailbox with a drain hook: onDrain runs on the
// worker each time it empties the queue after processing at least one item —
// i.e. once per burst, after its last item. A transport sink uses it to
// flush a buffered writer, coalescing one syscall per burst instead of one
// per frame. nil disables the hook.
func NewMailboxDrain[T any](bound int, sink func(T), onDrain func()) *Mailbox[T] {
	if bound <= 0 {
		bound = DefaultMailboxBound
	}
	m := &Mailbox[T]{
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		bound: bound,
	}
	go m.run(sink, onDrain)
	return m
}

// Put enqueues an item. It never blocks; ordering is FIFO per mailbox.
// Put panics if the mailbox has been stopped or the bound is exceeded —
// both are programming errors, not load conditions. Producers that can
// legitimately race a teardown use TryPut instead.
func (m *Mailbox[T]) Put(it T) {
	if !m.TryPut(it) {
		panic("dist: Put on a stopped mailbox")
	}
}

// TryPut is Put for producers that race a teardown: it reports false instead
// of panicking when the mailbox has already been stopped (the caller owns the
// item again and must release it). A transport send in flight while the
// endpoint shuts down lands here — the frame can never reach the wire, so
// dropping it is the correct outcome, not a bug. Overflow is still a
// programming error and still panics.
func (m *Mailbox[T]) TryPut(it T) bool {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return false
	}
	if len(m.queue) >= m.bound {
		n := len(m.queue)
		m.mu.Unlock()
		panic(fmt.Sprintf("dist: mailbox overflow: %d outstanding items (bound %d)", n, m.bound))
	}
	m.queue = append(m.queue, it)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return true
}

// Len reports the items enqueued or swapped out but not yet sunk by the
// worker — the sender-worker queue depth the observability layer samples.
// Including the in-flight batch means a drain burst shows as depth falling
// item by item, not as an instantaneous drop to zero at swap time.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) + int(m.inflight.Load())
}

// Stop drains remaining items through the sink, then terminates the worker.
// It blocks until the drain completes. Idempotent.
func (m *Mailbox[T]) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}

func (m *Mailbox[T]) run(sink func(T), onDrain func()) {
	defer close(m.done)
	var batch []T
	var zero T
	for {
		select {
		case <-m.wake:
		case <-m.stop:
			// Final drain: producers are gone (Put panics after stop), so one
			// swap empties the queue for good.
			m.mu.Lock()
			batch, m.queue = m.queue, batch[:0]
			m.inflight.Store(int64(len(batch)))
			m.mu.Unlock()
			for i := range batch {
				sink(batch[i])
				batch[i] = zero
				m.inflight.Add(-1)
			}
			if onDrain != nil && len(batch) > 0 {
				onDrain()
			}
			return
		}
		drained := false
		for {
			// Swap the produced queue for the drained standby buffer; both
			// retain capacity, so the steady state recycles two arrays.
			m.mu.Lock()
			batch, m.queue, m.standby = m.queue, m.standby[:0], nil
			m.inflight.Store(int64(len(batch)))
			m.mu.Unlock()
			if len(batch) == 0 {
				m.mu.Lock()
				m.standby = batch
				m.mu.Unlock()
				if onDrain != nil && drained {
					onDrain()
				}
				break
			}
			drained = true
			for i := range batch {
				sink(batch[i])
				batch[i] = zero // release the payload reference promptly
				m.inflight.Add(-1)
			}
			m.mu.Lock()
			m.standby = batch[:0]
			m.mu.Unlock()
		}
	}
}
