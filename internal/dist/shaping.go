package dist

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/tensor"
)

// ShapedTransport wraps a dist endpoint and degrades its send path the way a
// real network would: a bandwidth cap serializes frames onto
// the link, a one-way latency (± uniform jitter) delays arrival, and a
// probabilistic frame loss silently drops frames. It exists so the degraded
// -network CI tier and the calibration model's off-localhost validation run
// without root/netem — the wrapped transport still moves real bytes over
// TCP; shaping only controls *when* they move, and whether.
//
// Semantics preserved from the wrapped transport:
//   - Send returns once the payload is captured: the shaper copies into a
//     pooled tensor immediately, so nothing reads the caller's tensor while
//     the frame waits out its modeled delay.
//   - Per-(src,dst) FIFO: frames serialize through a per-link pacer and
//     arrival times are clamped monotone, so jitter never reorders a link.
//   - Loss is retransmit-free: a dropped frame is simply never delivered,
//     so the receiver's Recv returns a timeout error after RecvTimeout. The
//     timeout does not poison the transport (see transport.Transport.Recv);
//     the job fails on the error, never hangs.
//
// Self-sends bypass shaping (loopback never crosses the modeled network).
type ShapedTransport struct {
	inner *Transport
	opts  ShapeOpts

	mu     sync.Mutex
	links  map[int]*shapedLink
	closed bool
}

// ShapeOpts configures the modeled network.
type ShapeOpts struct {
	// Latency is the one-way propagation delay added to every frame.
	Latency time.Duration
	// Jitter widens each frame's latency uniformly by ±Jitter (arrival order
	// per link is still FIFO: a frame never overtakes its predecessor).
	Jitter time.Duration
	// BandwidthGBs caps the link's serialization rate in GB/s (0 = no cap).
	// Frames queue behind each other at the cap, so a burst sees queueing
	// delay grow linearly — the behavior the calibration model predicts.
	BandwidthGBs float64
	// LossProb drops each frame independently with this probability. No
	// retransmit: the receive side's Recv returns a timeout error (without
	// poisoning), as with any message that never arrives.
	LossProb float64
	// Seed makes the jitter/loss sequence deterministic per link (each link
	// derives its own stream from Seed, from, and to).
	Seed uint64
}

// enabled reports whether the options shape anything at all.
func (o ShapeOpts) enabled() bool {
	return o.Latency > 0 || o.Jitter > 0 || o.BandwidthGBs > 0 || o.LossProb > 0
}

// shapedFrame is one in-flight frame between the pacer and delivery stages.
type shapedFrame struct {
	from, to, tag int
	ten           *tensor.Tensor
	arriveAt      time.Time
	drop          bool
}

// shapedLink shapes one (src, dst) direction: the tx mailbox worker models
// the serialization (bandwidth) delay and stamps arrival times; the fly
// mailbox worker sleeps until each arrival time and performs the real send.
// Two stages so a frame's propagation delay overlaps the next frame's
// serialization, exactly like a store-and-forward link.
type shapedLink struct {
	tx  *Mailbox[shapedFrame]
	fly *Mailbox[shapedFrame]
}

// NewShapedTransport wraps inner. Stop the returned transport (before
// closing inner) to drain in-flight frames.
func NewShapedTransport(inner *Transport, opts ShapeOpts) *ShapedTransport {
	return &ShapedTransport{inner: inner, opts: opts, links: map[int]*shapedLink{}}
}

func (s *ShapedTransport) Rank() int { return s.inner.Rank() }

// Send captures the payload and routes it through the link shaper. from must
// be the wrapped endpoint's rank (same single-actor contract as the TCP
// transport).
func (s *ShapedTransport) Send(from, to, tag int, ten *tensor.Tensor) {
	if !s.opts.enabled() || to == from {
		s.inner.Send(from, to, tag, ten)
		return
	}
	cp := tensor.GetScratchShaped(ten.Shape()...)
	cp.CopyFrom(ten.Data())
	s.shape(from, to, tag, cp)
}

// SendLent implements transport.Transport. A shaped frame waits out its
// modeled delay long after the caller has moved on, so it cannot borrow: what
// waits is the pooled copy Send would have made.
func (s *ShapedTransport) SendLent(from, to, tag int, payload []float64) {
	if !s.opts.enabled() || to == from {
		s.inner.SendLent(from, to, tag, payload)
		return
	}
	cp := tensor.GetScratch(len(payload))
	cp.CopyFrom(payload)
	s.shape(from, to, tag, cp)
}

// Settle implements transport.Transport: shaped frames are copies, so only
// what went straight to the wrapped endpoint can be outstanding.
func (s *ShapedTransport) Settle(from, to int) error { return s.inner.Settle(from, to) }

// shape hands a captured payload, which the shaper now owns, to the link's
// pacer.
func (s *ShapedTransport) shape(from, to, tag int, cp *tensor.Tensor) {
	l := s.link(to)
	if l == nil || !l.tx.TryPut(shapedFrame{from: from, to: to, tag: tag, ten: cp}) {
		tensor.Recycle(cp) // raced teardown; the frame can never be delivered
	}
}

// Recv, Err, Poison, QueueDepth, SendCount delegate: shaping models the
// network between endpoints, not the endpoints themselves.
func (s *ShapedTransport) Recv(to, from, tag int) (*tensor.Tensor, error) {
	return s.inner.Recv(to, from, tag)
}

func (s *ShapedTransport) Err() error { return s.inner.Err() }

func (s *ShapedTransport) Poison(err error) { s.inner.Poison(err) }

func (s *ShapedTransport) QueueDepth() int {
	depth := s.inner.QueueDepth()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		if n := l.tx.Len() + l.fly.Len(); n > depth {
			depth = n
		}
	}
	return depth
}

func (s *ShapedTransport) SendCount() (int, int64) { return s.inner.SendCount() }

// link returns (creating on first use) the shaper for one destination.
func (s *ShapedTransport) link(to int) *shapedLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if l, ok := s.links[to]; ok {
		return l
	}
	l := &shapedLink{}
	// Deterministic per-link randomness: jitter and loss replay identically
	// for a given (seed, src, dst), so a CI failure reproduces locally.
	rng := rand.New(rand.NewSource(int64(s.opts.Seed ^ uint64(s.inner.Rank())<<20 ^ uint64(to))))
	opts := s.opts
	inner := s.inner
	// Delivery stage: sleep until the stamped arrival, then perform the real
	// send (or drop). Runs strictly FIFO per link.
	l.fly = NewMailbox[shapedFrame](0, func(f shapedFrame) {
		if d := time.Until(f.arriveAt); d > 0 {
			time.Sleep(d)
		}
		if f.drop {
			tensor.Recycle(f.ten)
			return
		}
		inner.Send(f.from, f.to, f.tag, f.ten) // serializes: the copy is ours again
		tensor.Recycle(f.ten)
	})
	// Pacer stage: model serialization onto the link at the bandwidth cap,
	// stamp the arrival time (latency ± jitter, clamped monotone so the link
	// stays FIFO), and decide loss. All state is worker-local.
	var lastTxEnd, lastArrive time.Time
	l.tx = NewMailbox[shapedFrame](0, func(f shapedFrame) {
		now := time.Now()
		start := lastTxEnd
		if now.After(start) {
			start = now
		}
		txEnd := start
		if opts.BandwidthGBs > 0 {
			bytes := float64(f.ten.Size()*8 + headerFixed)
			txEnd = start.Add(time.Duration(bytes / opts.BandwidthGBs)) // bytes/GBs = ns
		}
		lastTxEnd = txEnd
		if d := time.Until(txEnd); d > 0 {
			time.Sleep(d)
		}
		delay := opts.Latency
		if opts.Jitter > 0 {
			delay += time.Duration((2*rng.Float64() - 1) * float64(opts.Jitter))
		}
		f.arriveAt = txEnd.Add(delay)
		if f.arriveAt.Before(lastArrive) {
			f.arriveAt = lastArrive
		}
		lastArrive = f.arriveAt
		f.drop = opts.LossProb > 0 && rng.Float64() < opts.LossProb
		l.fly.Put(f)
	})
	s.links[to] = l
	return l
}

// Stop drains every link (frames already captured still deliver, on their
// shaped schedule) and retires the shaper workers. Call before closing the
// wrapped transport. Idempotent.
func (s *ShapedTransport) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	links := make([]*shapedLink, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.mu.Unlock()
	for _, l := range links {
		l.tx.Stop()
	}
	for _, l := range links {
		l.fly.Stop()
	}
}

// String summarizes the shape for logs.
func (o ShapeOpts) String() string {
	return fmt.Sprintf("latency=%v jitter=%v bw=%.2fGB/s loss=%.3f", o.Latency, o.Jitter, o.BandwidthGBs, o.LossProb)
}
