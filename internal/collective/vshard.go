package collective

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Variable-shard collectives: ReduceScatterVInto and AllGatherVInto operate
// on a flat buffer partitioned by an explicit per-rank counts table instead
// of the balanced chunkRange partition. They are the exchange primitives of
// the ZeRO-style sharded optimizer epilogue: counts come from the owner-major
// gradient layout, so shards are uneven in general and may be empty (a rank
// that owns no entries still participates in every ring step with zero-size
// chunks to keep tags in lockstep).

// EvenCounts returns the balanced partition of n elements over parts shards
// (the same split chunkRange uses): the first n%parts shards get one extra
// element. It is the canonical counts table when no ownership structure
// dictates a different one.
func EvenCounts(n, parts int) []int {
	out := make([]int, parts)
	for i := range out {
		lo, hi := chunkRange(n, parts, i)
		out[i] = hi - lo
	}
	return out
}

// vRange returns the [lo, hi) element range of shard i under the counts
// partition. O(len(counts)) and allocation-free — ring loops call it per step
// rather than materializing a prefix-sum table.
func vRange(counts []int, i int) (lo, hi int) {
	for k := 0; k < i; k++ {
		lo += counts[k]
	}
	return lo, lo + counts[i]
}

// checkCounts validates a counts table against the group size and total
// element count.
func (c *Communicator) checkCounts(counts []int, total int) error {
	if len(counts) != c.Size() {
		return fmt.Errorf("collective: counts table has %d entries for a group of %d", len(counts), c.Size())
	}
	sum := 0
	for r, cnt := range counts {
		if cnt < 0 {
			return fmt.Errorf("collective: negative shard count %d for rank %d", cnt, r)
		}
		sum += cnt
	}
	if sum != total {
		return fmt.Errorf("collective: counts sum to %d, want %d", sum, total)
	}
	return nil
}

// vcountsScratch returns the communicator-private per-bucket counts scratch,
// grown once and reused (the steady-state path performs no allocations).
func (c *Communicator) vcountsScratch(n int) []int {
	if cap(c.vcounts) < n {
		c.vcounts = make([]int, n)
	}
	return c.vcounts[:n]
}

// ReduceScatterVInto ring-reduce-scatters data across the group under an
// explicit counts partition: every rank passes a rank-private flat buffer of
// sum(counts) elements holding its local contribution, and on return dst
// (counts[rank] elements) holds the fully reduced shard [start(rank),
// start(rank)+counts[rank]) of the elementwise reduction. data is consumed as
// in-place scratch — its contents are partially reduced garbage afterwards.
//
// The transfer is bucketed like AllReduceBucketsInPlace: the flat range is
// cut into buckets of at most bucketBytes (<=0 selects DefaultBucketBytes)
// and each bucket runs one ring pass over the per-rank overlap segments, so
// in-flight chunk memory is bounded regardless of model size. Shards may be
// uneven or empty; empty segments travel as zero-size chunks so every rank
// executes the identical tag schedule. Zero heap allocations at steady state.
func (c *Communicator) ReduceScatterVInto(dst, data *tensor.Tensor, counts []int, op Op, bucketBytes int) error {
	n := c.Size()
	total := data.Size()
	if err := c.checkCounts(counts, total); err != nil {
		return err
	}
	if dst.Size() != counts[c.rank] {
		return fmt.Errorf("collective: ReduceScatterVInto destination has %d elements, rank %d owns %d", dst.Size(), c.rank, counts[c.rank])
	}
	if dst.Borrowed() || data.Borrowed() {
		return fmt.Errorf("collective: ReduceScatterVInto buffers must not be borrowed views")
	}
	myLo, myHi := vRange(counts, c.rank)
	if n == 1 {
		c.opWindow() // consumed even on the fast path to keep counters uniform
		copy(dst.Data(), data.Data()[myLo:myHi])
		return nil
	}
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	numBuckets := (total*bytesPerElem + bucketBytes - 1) / bucketBytes
	if numBuckets < 1 {
		numBuckets = 1 // total == 0 still runs one (empty-chunk) pass
	}
	bcounts := c.vcountsScratch(n)
	full := data.Data()
	dstOff := 0
	for b := 0; b < numBuckets; b++ {
		blo, bhi := chunkRange(total, numBuckets, b)
		// Per-rank overlap of the global counts partition with this bucket.
		gs := 0
		for r := 0; r < n; r++ {
			ge := gs + counts[r]
			lo, hi := max(gs, blo), min(ge, bhi)
			if hi < lo {
				hi = lo
			}
			bcounts[r] = hi - lo
			gs = ge
		}
		base := c.opWindow()
		sub := full[blo:bhi]
		// Shifted ring indices (the NCCL ReduceScatter layout): after n-1
		// steps rank r holds the fully reduced segment r of this bucket.
		for s := 0; s < n-1; s++ {
			sendIdx := ((c.rank-s-1)%n + 2*n) % n
			recvIdx := ((c.rank-s-2)%n + 2*n) % n
			slo, shi := vRange(bcounts, sendIdx)
			rlo, rhi := vRange(bcounts, recvIdx)
			c.sendChunk(c.next(), base+s, sub, slo, shi)
			if err := c.combineChunk(c.prev(), base+s, sub[rlo:rhi], op); err != nil {
				return fmt.Errorf("collective: ReduceScatterVInto bucket %d: %w", b, err)
			}
		}
		lo, hi := vRange(bcounts, c.rank)
		copy(dst.Data()[dstOff:dstOff+(hi-lo)], sub[lo:hi])
		dstOff += hi - lo
	}
	if dstOff != myHi-myLo {
		return fmt.Errorf("collective: ReduceScatterVInto reassembled %d elements for rank %d, want %d", dstOff, c.rank, myHi-myLo)
	}
	return nil
}

// sumIdentity is the IEEE-754 additive identity: x + (−0.0) is bit-identical
// to x for every x (including ±0.0), so segments nobody contributed to reduce
// to −0.0 — exactly what the dense filler path produces when every rank
// contributes a −0.0 buffer.
var sumIdentity = math.Copysign(0, -1)

// vvalidScratch returns the communicator-private 2n-element validity scratch
// (global validity + per-bucket working copy), grown once and reused.
func (c *Communicator) vvalidScratch(n int) []bool {
	if cap(c.vvalid) < 2*n {
		c.vvalid = make([]bool, 2*n)
	}
	return c.vvalid[:2*n]
}

// ReduceScatterVSparseInto is ReduceScatterVInto for a rank whose
// contribution is confined to the contiguous element range [contribLo,
// contribHi) of the flat buffer: instead of materializing the additive
// identity (−0.0) across every element it does not produce — the dense
// filler path — the rank ships zero-length identity-marker chunks for
// segments it has nothing for, and receivers copy (rather than reduce) the
// first real chunk of a segment. data outside the contribution range is
// never read except in the at-most-two shard segments the range boundaries
// cut through, which are identity-filled in place up front. The result is
// bit-identical to the dense path (x + (−0.0) == x bitwise, in any
// combination order) while skipping both the O(total) fill and the wire
// traffic for untouched segments. OpSum only — the marker protocol encodes
// the sum identity. An empty contribution (contribLo == contribHi) is legal:
// the rank still participates in every ring step.
func (c *Communicator) ReduceScatterVSparseInto(dst, data *tensor.Tensor, counts []int, contribLo, contribHi int, op Op, bucketBytes int) error {
	if op != OpSum {
		return fmt.Errorf("collective: ReduceScatterVSparseInto supports OpSum only (the identity-marker protocol encodes the sum identity)")
	}
	n := c.Size()
	total := data.Size()
	if err := c.checkCounts(counts, total); err != nil {
		return err
	}
	if dst.Size() != counts[c.rank] {
		return fmt.Errorf("collective: ReduceScatterVSparseInto destination has %d elements, rank %d owns %d", dst.Size(), c.rank, counts[c.rank])
	}
	if dst.Borrowed() || data.Borrowed() {
		return fmt.Errorf("collective: ReduceScatterVSparseInto buffers must not be borrowed views")
	}
	if contribLo < 0 || contribHi > total || contribLo > contribHi {
		return fmt.Errorf("collective: contribution range [%d, %d) outside flat range [0, %d)", contribLo, contribHi, total)
	}
	full := data.Data()
	valid := c.vvalidScratch(n)
	gvalid, bvalid := valid[:n], valid[n:]
	// Global per-shard validity: a shard segment is valid when the
	// contribution range overlaps it. The at-most-two segments the range
	// boundaries cut through get their non-contributed portions
	// identity-filled so the whole segment can travel as real data.
	gs := 0
	for r := 0; r < n; r++ {
		ge := gs + counts[r]
		olo, ohi := max(gs, contribLo), min(ge, contribHi)
		gvalid[r] = olo < ohi
		if gvalid[r] {
			for i := gs; i < olo; i++ {
				full[i] = sumIdentity
			}
			for i := ohi; i < ge; i++ {
				full[i] = sumIdentity
			}
		}
		gs = ge
	}
	myLo, myHi := vRange(counts, c.rank)
	if n == 1 {
		c.opWindow() // consumed even on the fast path to keep counters uniform
		out := dst.Data()
		if gvalid[0] {
			copy(out, full[myLo:myHi])
		} else {
			for i := range out {
				out[i] = sumIdentity
			}
		}
		return nil
	}
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	numBuckets := (total*bytesPerElem + bucketBytes - 1) / bucketBytes
	if numBuckets < 1 {
		numBuckets = 1
	}
	bcounts := c.vcountsScratch(n)
	dstOff := 0
	for b := 0; b < numBuckets; b++ {
		blo, bhi := chunkRange(total, numBuckets, b)
		gs := 0
		for r := 0; r < n; r++ {
			ge := gs + counts[r]
			lo, hi := max(gs, blo), min(ge, bhi)
			if hi < lo {
				hi = lo
			}
			bcounts[r] = hi - lo
			// A bucket piece of shard r inherits r's global validity (the
			// boundary fill above already made partial segments whole).
			bvalid[r] = gvalid[r]
			gs = ge
		}
		base := c.opWindow()
		sub := full[blo:bhi]
		for s := 0; s < n-1; s++ {
			sendIdx := ((c.rank-s-1)%n + 2*n) % n
			recvIdx := ((c.rank-s-2)%n + 2*n) % n
			slo, shi := vRange(bcounts, sendIdx)
			rlo, rhi := vRange(bcounts, recvIdx)
			if bvalid[sendIdx] {
				c.sendChunk(c.next(), base+s, sub, slo, shi)
			} else {
				// Identity marker: zero-length chunk in place of a segment
				// this rank has accumulated nothing for. Tags stay in
				// lockstep; the receiver's accumulated value is unchanged.
				c.sendChunk(c.next(), base+s, sub, slo, slo)
			}
			gotData, err := c.combineChunkSparse(c.prev(), base+s, sub[rlo:rhi], bvalid[recvIdx], op)
			if err != nil {
				return fmt.Errorf("collective: ReduceScatterVSparseInto bucket %d: %w", b, err)
			}
			if gotData {
				bvalid[recvIdx] = true
			}
		}
		lo, hi := vRange(bcounts, c.rank)
		out := dst.Data()[dstOff : dstOff+(hi-lo)]
		if bvalid[c.rank] {
			copy(out, sub[lo:hi])
		} else {
			// No rank contributed to this segment: the dense path would have
			// summed world copies of −0.0, which is −0.0.
			for i := range out {
				out[i] = sumIdentity
			}
		}
		dstOff += hi - lo
	}
	if dstOff != myHi-myLo {
		return fmt.Errorf("collective: ReduceScatterVSparseInto reassembled %d elements for rank %d, want %d", dstOff, c.rank, myHi-myLo)
	}
	return nil
}

// AllGatherVInto gathers variable-size shards from every rank into dst under
// an explicit counts partition: rank r contributes shard (counts[r] elements)
// and dst (sum(counts) elements, rank-private mutable storage) receives every
// rank's shard at its counts offset. Like AllGatherInto, the caller's shard
// is copied into a pooled chunk before the first hop and chunks circulate the
// ring with ownership — the shard buffer may be reused the moment the call
// returns, and whoever receives a chunk last recycles it. Shards may be
// uneven or empty (empty shards travel as zero-size chunks so the ring stays
// in lockstep). Zero heap allocations at steady state.
func (c *Communicator) AllGatherVInto(dst, shard *tensor.Tensor, counts []int) error {
	n := c.Size()
	total := dst.Size()
	if err := c.checkCounts(counts, total); err != nil {
		return err
	}
	if shard.Size() != counts[c.rank] {
		return fmt.Errorf("collective: AllGatherVInto shard has %d elements, rank %d owns %d", shard.Size(), c.rank, counts[c.rank])
	}
	if dst.Borrowed() {
		return fmt.Errorf("collective: AllGatherVInto destination is a borrowed view")
	}
	base := c.opWindow() // consumed even on fast paths to keep ranks in lockstep
	data := dst.Data()
	myLo, myHi := vRange(counts, c.rank)
	copy(data[myLo:myHi], shard.Data())
	if n == 1 || total == 0 {
		return nil
	}
	// Seed the ring with a pooled copy of the local shard, then circulate: at
	// step s forward the chunk originally owned by rank-s and keep the
	// incoming chunk (owned by rank-s-1) for the next hop.
	cur := tensor.GetScratch(counts[c.rank])
	cur.CopyFrom(shard.Data())
	for s := 0; s < n-1; s++ {
		hs := obs.TrackTid(scCollSend, c.self())
		sent := cur.Size() // read before Recycle: the pool may rehome cur instantly
		c.g.tr.Send(c.self(), c.next(), base+s, cur)
		if c.g.senderOwns {
			tensor.Recycle(cur) // serialized; the relayed chunk stays ours
		}
		hs.StopBytes(int64(sent) * 8)
		hw := obs.TrackTid(scCollWait, c.self())
		in, err := c.g.tr.Recv(c.self(), c.prev(), base+s)
		hw.Stop()
		if err != nil {
			return err
		}
		owner := ((c.rank-s-1)%n + n) % n
		if in.Size() != counts[owner] {
			return fmt.Errorf("collective: rank %d received shard of %d elements from rank %d, expected %d", c.rank, in.Size(), owner, counts[owner])
		}
		olo, ohi := vRange(counts, owner)
		hc := obs.TrackTid(scCollCopy, c.self())
		copy(data[olo:ohi], in.Data())
		hc.StopBytes(int64(ohi-olo) * 8)
		cur = in
	}
	tensor.Recycle(cur) // final hop: this rank is the chunk's last reader
	return nil
}

// MeasureShardedExchange times the ZeRO epilogue's collective pair — a
// bucketed ReduceScatterV of elems float64 elements into balanced per-rank
// shards followed by an AllGatherV of those shards — over n ranks on tr,
// mirroring MeasureAllReduce's harness: barrier-aligned starts, warmups that
// cover the tag-reuse cycle, and the slowest rank's duration averaged over
// the timed iterations. Returns the steady-state duration of the pair and
// rank 0's gathered tensor for correctness checks.
func MeasureShardedExchange(tr transport.Transport, n, elems, bucketBytes int) (time.Duration, *tensor.Tensor, error) {
	const warmups, iters = 24, 5
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(tr, ranks, 0)
	if err != nil {
		return 0, nil, err
	}
	counts := EvenCounts(elems, n)

	durs := make([][iters]time.Duration, n)
	outs := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := g.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			data := make([]float64, elems)
			for i := range data {
				data[i] = float64(r + 1)
			}
			in, err := tensor.FromSlice(data, elems)
			if err != nil {
				errs[r] = err
				return
			}
			work := in.Clone()
			shard := tensor.GetScratch(counts[r])
			out := tensor.GetScratch(elems)
			defer tensor.Recycle(shard)
			defer tensor.Recycle(out)
			for it := 0; it < warmups+iters; it++ {
				// The reduce-scatter consumes work as scratch; refill per iter.
				work.CopyFrom(in.Data())
				if err := comm.Barrier(); err != nil {
					errs[r] = err
					return
				}
				start := time.Now()
				if err := comm.ReduceScatterVInto(shard, work, counts, OpSum, bucketBytes); err != nil {
					errs[r] = err
					return
				}
				if err := comm.AllGatherVInto(out, shard, counts); err != nil {
					errs[r] = err
					return
				}
				if it >= warmups {
					durs[r][it-warmups] = time.Since(start)
				}
			}
			outs[r] = out.Clone()
			tensor.Recycle(in)
			tensor.Recycle(work)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("collective: measure sharded exchange rank %d: %w", r, err)
		}
	}
	for r := 1; r < n; r++ {
		tensor.Recycle(outs[r])
	}
	var total time.Duration
	for it := 0; it < iters; it++ {
		max := durs[0][it]
		for r := 1; r < n; r++ {
			if durs[r][it] > max {
				max = durs[r][it]
			}
		}
		total += max
	}
	return total / iters, outs[0], nil
}
