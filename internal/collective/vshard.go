package collective

import (
	"fmt"

	"repro/internal/tensor"
)

// Variable-shard collectives: ReduceScatterVInto and AllGatherVInto operate
// on a flat buffer partitioned by an explicit per-rank counts table instead
// of the balanced chunkRange partition, for callers whose ownership structure
// dictates the shards: they are uneven in general and may be empty (a rank
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

// ReduceScatterVInto ring-reduce-scatters data across the group under an
// explicit counts partition: every rank passes a rank-private flat buffer of
// sum(counts) elements holding its local contribution, and on return dst
// (counts[rank] elements) holds the fully reduced shard [start(rank),
// start(rank)+counts[rank]) of the elementwise reduction. data is consumed as
// in-place scratch — its contents are partially reduced garbage afterwards.
//
// The transfer is bucketed like the gradient fusion of bucket.go: the flat
// range is cut into buckets of at most bucketBytes (<=0 selects
// DefaultBucketBytes) and each bucket runs one reduce pass over the per-rank
// overlap segments, so in-flight chunk memory is bounded regardless of model
// size. Shards may be uneven or empty; empty segments travel as zero-size
// chunks so every rank executes the identical tag schedule. Zero heap
// allocations at steady state.
func (c *Communicator) ReduceScatterVInto(dst, data *tensor.Tensor, counts []int, op Op, bucketBytes int) error {
	total := data.Size()
	if err := c.checkCounts(counts, total); err != nil {
		return err
	}
	if dst.Size() != counts[c.rank] {
		return fmt.Errorf("collective: ReduceScatterV destination has %d elements, rank %d owns %d", dst.Size(), c.rank, counts[c.rank])
	}
	if dst.Borrowed() || data.Borrowed() {
		return fmt.Errorf("collective: ReduceScatterV buffers must not be borrowed views")
	}
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	// total == 0 still runs one (empty-chunk) pass, and a single-rank group
	// runs its passes with no steps: every call consumes a tag window.
	numBuckets := max(1, (total*bytesPerElem+bucketBytes-1)/bucketBytes)
	full, out := data.Data(), dst.Data()
	for b := 0; b < numBuckets; b++ {
		blo, bhi := chunkRange(total, numBuckets, b)
		off := c.countsOffsets(counts, blo, bhi)
		sub := full[blo:bhi]
		// first = rank-1 (the NCCL ReduceScatter layout): after the pass rank
		// r holds the fully reduced segment r of this bucket.
		if err := c.reducePass(c.opWindow(), sub, off, c.rank-1, nil); err != nil {
			return fmt.Errorf("collective: ReduceScatterV bucket %d: %w", b, err)
		}
		mine := sub[off[c.rank]:off[c.rank+1]]
		copy(out, mine)
		out = out[len(mine):]
	}
	if len(out) != 0 {
		return fmt.Errorf("collective: ReduceScatterV reassembled %d elements for rank %d, want %d", dst.Size()-len(out), c.rank, dst.Size())
	}
	return nil
}

// AllGatherVInto gathers variable-size shards from every rank into dst under
// an explicit counts partition: rank r contributes shard (counts[r] elements)
// and dst (sum(counts) elements, rank-private mutable storage) receives every
// rank's shard at its counts offset. Like AllGatherInto, the caller's shard
// is only read — what the ring lends is dst — so the shard buffer may be reused
// the moment the call returns. Shards may be uneven or empty (empty shards
// travel as zero-size chunks so the ring stays in lockstep). Zero heap
// allocations at steady state.
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
	off := c.countsOffsets(counts, 0, total)
	copy(data[off[c.rank]:], shard.Data())
	if n == 1 || total == 0 {
		return nil
	}
	return c.gatherPass(base, data, off, c.rank)
}
