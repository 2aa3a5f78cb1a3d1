package dist

import (
	"fmt"
	"math/rand"
	"time"
)

// Link shaping degrades a dist endpoint's links the way a real network would:
// a bandwidth cap serializes frames onto the link, a one-way latency (±
// uniform jitter) delays arrival, and a probabilistic frame loss silently
// drops frames. It exists so the degraded-network CI tier and the calibration
// model's off-localhost validation run without root/netem — the link still
// moves real bytes over TCP; shaping only controls *when* they move, and
// whether. Transport.SetShape arms it; the link's sender worker, the one
// queue between Send and the socket, waits out each data frame's modeled
// arrival before writing it.
//
// Semantics, beyond the unshaped link's:
//   - The bandwidth cap charges the frame's encoded length, so a lossy frame
//     is paced by the bytes it really puts on the wire.
//   - Per-(src,dst) FIFO: arrival times are clamped monotone, so jitter never
//     reorders a link.
//   - Loss is retransmit-free: a dropped frame is simply never delivered,
//     so the receiver's Recv returns a timeout error after RecvTimeout. The
//     timeout does not poison the transport (see transport.Transport.Recv);
//     the job fails on the error, never hangs.
//   - A shaped link never lends: SendLent copies, as it does a small frame.
//
// Self-sends, and the hello and goodbye frames, bypass shaping.

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

// String summarizes the shape for logs.
func (o ShapeOpts) String() string {
	return fmt.Sprintf("latency=%v jitter=%v bw=%.2fGB/s loss=%.3f", o.Latency, o.Jitter, o.BandwidthGBs, o.LossProb)
}

// pacer is one shaped (src, dst) link's store-and-forward model. It is
// touched only by the link's sender worker.
type pacer struct {
	opts                  ShapeOpts
	rng                   *rand.Rand
	lastTxEnd, lastArrive time.Time
}

// newPacer seeds the link's jitter and loss stream from (Seed, from, to), so
// a CI failure replays locally.
func newPacer(opts ShapeOpts, from, to int) *pacer {
	return &pacer{opts: opts, rng: rand.New(rand.NewSource(int64(opts.Seed ^ uint64(from)<<20 ^ uint64(to))))}
}

// arrival models one frame of frameBytes queued at enqueued: it leaves the
// link once the frames before it have and its own bytes have crossed at the
// bandwidth cap, then arrives a latency ± jitter later, never before its
// predecessor — or is lost.
func (p *pacer) arrival(enqueued time.Time, frameBytes int) (at time.Time, drop bool) {
	txEnd := enqueued
	if p.lastTxEnd.After(txEnd) {
		txEnd = p.lastTxEnd
	}
	if p.opts.BandwidthGBs > 0 {
		txEnd = txEnd.Add(time.Duration(float64(frameBytes) / p.opts.BandwidthGBs)) // bytes/GBs = ns
	}
	p.lastTxEnd = txEnd
	delay := p.opts.Latency
	if p.opts.Jitter > 0 {
		delay += time.Duration((2*p.rng.Float64() - 1) * float64(p.opts.Jitter))
	}
	at = txEnd.Add(delay)
	if at.Before(p.lastArrive) {
		at = p.lastArrive
	}
	p.lastArrive = at
	return at, p.opts.LossProb > 0 && p.rng.Float64() < p.opts.LossProb
}
