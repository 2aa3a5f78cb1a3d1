package collective

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Profiling scopes for the ring phases: send is the handoff of a segment to
// the transport, wait is the blocking receive and a pass's closing settle
// (ring skew + wire latency), reduce and copy are the arithmetic/memcpy
// consuming a received chunk. Spans carry the rank as their trace lane.
var (
	scCollSend   = obs.Scope("coll/send")
	scCollWait   = obs.Scope("coll/wait")
	scCollReduce = obs.Scope("coll/reduce")
	scCollCopy   = obs.Scope("coll/copy")
)

// chunkRange returns the [lo, hi) element range of chunk i when n elements
// are balanced over parts chunks: the first n%parts chunks get one extra
// element, so any length (including zero and odd sizes) and any ring size
// (including non-powers-of-two) partition cleanly.
func chunkRange(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// Segment offsets. Both passes walk a table off of Size()+1 entries in which
// segment i of the buffer is [off[i], off[i+1]). The table is communicator
// scratch, grown once and refilled per ring pass (zero allocations at steady
// state); a fill invalidates the previous one.
func (c *Communicator) offsets() []int {
	if n := c.Size() + 1; cap(c.off) < n {
		c.off = make([]int, n)
	}
	return c.off[:c.Size()+1]
}

// evenOffsets is the balanced chunkRange partition of L elements.
func (c *Communicator) evenOffsets(L int) []int {
	off := c.offsets()
	for i := range off {
		off[i], _ = chunkRange(L, c.Size(), i)
	}
	return off
}

// countsOffsets is the partition a per-rank counts table induces on the
// window [lo, hi) of the flat range it covers, relative to lo: segment r is
// the overlap of rank r's shard with the window, empty when they are
// disjoint. The whole range [0, sum(counts)) gives the plain prefix sum.
func (c *Communicator) countsOffsets(counts []int, lo, hi int) []int {
	off := c.offsets()
	start := 0
	for r, cnt := range counts {
		off[r] = min(max(start, lo), hi) - lo
		start += cnt
	}
	off[len(counts)] = hi - lo
	return off
}

// send lends seg, a segment of the buffer a pass or a broadcast is walking,
// to the transport for delivery to actor `to` under tag: over a serializing
// transport the bytes go to the socket from seg itself, over an in-process
// one a pooled copy travels — the transport's choice, made behind SendLent.
// Either way seg is still on loan when send returns: it must not be written
// until settle has returned, which is why both passes fold and copy only into
// segments they have not sent yet.
func (c *Communicator) send(to, tag int, seg []float64) {
	h := obs.TrackTid(scCollSend, c.self())
	c.g.tr.SendLent(c.self(), to, tag, seg)
	h.StopBytes(int64(len(seg)) * 8)
}

// settle ends a pass or a broadcast, on success and on failure alike: it
// waits until the transport has let go of every segment lent to the next
// rank, so that the caller — eachBucket refilling its flat scratch, the step
// epilogue updating or recycling a gradient — may write the buffer again. It
// returns err, the pass's own failure, if there is one, and the transport's
// otherwise.
func (c *Communicator) settle(err error) error {
	h := obs.TrackTid(scCollWait, c.self())
	serr := c.g.tr.Settle(c.self(), c.next())
	h.Stop()
	if err != nil {
		return err
	}
	return serr
}

// recv blocks for the chunk actor `from` sent under tag and checks that it
// carries want elements. The caller owns the returned chunk and recycles it
// once consumed; a chunk of the wrong size is recycled here.
func (c *Communicator) recv(from, tag, want int) (*tensor.Tensor, error) {
	h := obs.TrackTid(scCollWait, c.self())
	t, err := c.g.tr.Recv(c.self(), from, tag)
	h.Stop()
	if err != nil {
		return nil, err
	}
	if got := t.Size(); got != want {
		tensor.Recycle(t)
		return nil, fmt.Errorf("collective: rank %d received chunk of %d elements, expected %d", c.rank, got, want)
	}
	return t, nil
}

// copyIn copies a received chunk over its segment of the buffer.
func (c *Communicator) copyIn(dst []float64, t *tensor.Tensor) {
	h := obs.TrackTid(scCollCopy, c.self())
	copy(dst, t.Data())
	h.StopBytes(int64(len(dst)) * 8)
}

// reducePass is the reduce half of a ring: Size()-1 steps over the segments
// off cuts data into, using tags base..base+Size()-2. At step s this rank
// lends segment first-s (indices mod Size()) to the transport and folds the
// incoming segment first-s-1 into data with op, so a segment's partial
// result travels up the ring picking up one rank's contribution per hop, and
// when the pass returns this rank holds the fully reduced segment first+1
// (every other segment of data is a partial sum). A segment is folded into at
// the step before it is sent and never after, so nothing on loan is written;
// the pass settles before it returns. Per element the combine order is fixed
// by first alone — see the package comment for the two layouts in use.
func (c *Communicator) reducePass(base int, data []float64, off []int, first int, op Op) error {
	n := c.Size()
	si := (first%n + n) % n
	for s := 0; s < n-1; s++ {
		ri := (si + n - 1) % n
		c.send(c.next(), base+s, data[off[si]:off[si+1]])
		dst := data[off[ri]:off[ri+1]]
		t, err := c.recv(c.prev(), base+s, len(dst))
		if err != nil {
			return c.settle(err)
		}
		h := obs.TrackTid(scCollReduce, c.self())
		op.combine(dst, t.Data())
		h.StopBytes(int64(len(dst)) * 8)
		tensor.Recycle(t)
		si = ri
	}
	return c.settle(nil)
}

// gatherPass is the gather half of a ring: Size()-1 steps using tags
// base..base+Size()-2 that leave every segment of data filled in on every
// rank, given that each rank enters holding the final value of segment first
// (and the first values of neighbouring ranks differ by one, as they do
// after a reducePass). At step s the rank lends segment first-s and copies
// the incoming chunk over segment first-s-1, which it lends in turn at step
// s+1: every segment is written once, before it is sent on, and the received
// chunk goes back to the pool as soon as it is copied. The pass settles
// before it returns.
func (c *Communicator) gatherPass(base int, data []float64, off []int, first int) error {
	n := c.Size()
	si := (first%n + n) % n
	for s := 0; s < n-1; s++ {
		c.send(c.next(), base+s, data[off[si]:off[si+1]])
		si = (si + n - 1) % n
		dst := data[off[si]:off[si+1]]
		in, err := c.recv(c.prev(), base+s, len(dst))
		if err != nil {
			return c.settle(err)
		}
		c.copyIn(dst, in)
		tensor.Recycle(in)
	}
	return c.settle(nil)
}

// AllGatherInto gathers equal-shape shards from every rank into dst along
// axis 0 in rank order: dst row block r holds rank r's shard. dst must have
// leading dimension Size()×shard.Dim(0), identical trailing dimensions, and
// be rank-private mutable storage. The caller's shard is only read — what
// is lent to the transport is dst — so it may be reused the moment the call
// returns. Zero heap allocations at steady state.
func (c *Communicator) AllGatherInto(dst, shard *tensor.Tensor) error {
	n := c.Size()
	base := c.opWindow() // consumed even on fast paths to keep ranks in lockstep
	if shard.Rank() == 0 || dst.Rank() != shard.Rank() {
		return fmt.Errorf("collective: AllGatherInto wants rank >= 1 shards and a matching destination, got shard %v dst %v", shard.Shape(), dst.Shape())
	}
	if dst.Borrowed() {
		return fmt.Errorf("collective: AllGatherInto destination is a borrowed view")
	}
	if dst.Dim(0) != n*shard.Dim(0) {
		return fmt.Errorf("collective: AllGatherInto destination leading dim %d, want %d×%d", dst.Dim(0), n, shard.Dim(0))
	}
	for i := 1; i < shard.Rank(); i++ {
		if dst.Dim(i) != shard.Dim(i) {
			return fmt.Errorf("collective: AllGatherInto trailing dims differ: shard %v dst %v", shard.Shape(), dst.Shape())
		}
	}
	stride := shard.Size()
	data := dst.Data()
	copy(data[c.rank*stride:], shard.Data())
	if n == 1 || stride == 0 {
		return nil
	}
	return c.gatherPass(base, data, c.evenOffsets(n*stride), c.rank)
}

// BroadcastInto distributes root's tensor in place: on the root, t is the
// source; on every other rank, t is rank-private mutable storage of the same
// shape that receives the payload. The transfer is a chunked pipelined ring:
// the root lends Size() chunks of t to its successor and each intermediate
// rank copies an incoming chunk into t and lends that part of t onward (the
// last rank in the chain only copies), so total time approaches one tensor
// transfer instead of Size()-1 sequential hops. t is not written after a
// chunk of it is lent, and the call settles before it returns.
func (c *Communicator) BroadcastInto(t *tensor.Tensor, root int) error {
	n := c.Size()
	base := c.opWindow() // consumed even on fast paths to keep ranks in lockstep
	if root < 0 || root >= n {
		return fmt.Errorf("collective: broadcast root %d out of range for group of %d", root, n)
	}
	if t == nil {
		return fmt.Errorf("collective: BroadcastInto needs a destination tensor on every rank")
	}
	if n == 1 {
		return nil
	}
	dist := ((c.rank-root)%n + n) % n
	if dist > 0 && t.Borrowed() {
		return fmt.Errorf("collective: BroadcastInto destination is a borrowed view")
	}
	data := t.Data()
	for k := 0; k < n; k++ {
		lo, hi := chunkRange(len(data), n, k)
		if dist > 0 {
			in, err := c.recv(c.prev(), base+k, hi-lo)
			if err != nil {
				return c.settle(err)
			}
			c.copyIn(data[lo:hi], in)
			tensor.Recycle(in)
		}
		if dist < n-1 {
			c.send(c.next(), base+k, data[lo:hi])
		}
	}
	return c.settle(nil)
}

// barrierToken is the shared payload of every barrier message: barriers
// carry no data, and Send only reads what it captures, so all ranks send the
// same immutable tensor.
var barrierToken = tensor.Scalar(1)

// Barrier blocks until every rank of the group has entered it. It is a
// dissemination barrier: ceil(log2 n) rounds of token passes at
// exponentially growing distance, so each rank transitively hears from all.
func (c *Communicator) Barrier() error {
	n := c.Size()
	base := c.opWindow()
	round := 0
	for d := 1; d < n; d *= 2 {
		to := c.g.ranks[(c.rank+d)%n]
		from := c.g.ranks[((c.rank-d)%n+n)%n]
		// Not c.send: nothing of a token is worth lending.
		c.g.tr.Send(c.self(), to, base+round, barrierToken)
		tok, err := c.recv(from, base+round, 1)
		if err != nil {
			return err
		}
		tensor.Recycle(tok) // the transport's copy, never the shared token
		round++
	}
	return nil
}
