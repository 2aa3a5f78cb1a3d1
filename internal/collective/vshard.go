package collective

import (
	"fmt"
	"math"

	"repro/internal/tensor"
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
// The transfer is bucketed like AllReduceBucketsInPlace: the flat range is
// cut into buckets of at most bucketBytes (<=0 selects DefaultBucketBytes)
// and each bucket runs one reduce pass over the per-rank overlap segments, so
// in-flight chunk memory is bounded regardless of model size. Shards may be
// uneven or empty; empty segments travel as zero-size chunks so every rank
// executes the identical tag schedule. Zero heap allocations at steady state.
func (c *Communicator) ReduceScatterVInto(dst, data *tensor.Tensor, counts []int, op Op, bucketBytes int) error {
	return c.reduceScatterV(dst, data, counts, 0, data.Size(), op, bucketBytes)
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
// first real chunk of a segment (reducePass's valid protocol). data outside
// the contribution range is never read except in the at-most-two shard
// segments the range boundaries cut through, which are identity-filled in
// place up front. The result is bit-identical to the dense path (x + (−0.0)
// == x bitwise, in any combination order) while skipping both the O(total)
// fill and the wire traffic for untouched segments. OpSum only — the marker
// protocol encodes the sum identity. An empty contribution (contribLo ==
// contribHi) is legal: the rank still participates in every ring step.
func (c *Communicator) ReduceScatterVSparseInto(dst, data *tensor.Tensor, counts []int, contribLo, contribHi int, op Op, bucketBytes int) error {
	if op != OpSum {
		return fmt.Errorf("collective: ReduceScatterVSparseInto supports OpSum only (the identity-marker protocol encodes the sum identity)")
	}
	return c.reduceScatterV(dst, data, counts, contribLo, contribHi, op, bucketBytes)
}

// reduceScatterV is the one reduce-scatter body. A rank that contributes the
// whole flat range (ReduceScatterVInto) has every non-empty segment valid
// from the start, so it never sends a marker and always folds with op.
func (c *Communicator) reduceScatterV(dst, data *tensor.Tensor, counts []int, contribLo, contribHi int, op Op, bucketBytes int) error {
	n := c.Size()
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
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	// total == 0 still runs one (empty-chunk) pass, and a single-rank group
	// runs its passes with no steps: every call consumes a tag window.
	numBuckets := max(1, (total*bytesPerElem+bucketBytes-1)/bucketBytes)
	out := dst.Data()
	for b := 0; b < numBuckets; b++ {
		blo, bhi := chunkRange(total, numBuckets, b)
		off := c.countsOffsets(counts, blo, bhi)
		// A bucket piece of shard r inherits r's global validity (the
		// boundary fill above already made partial segments whole).
		copy(bvalid, gvalid)
		sub := full[blo:bhi]
		// first = rank-1 (the NCCL ReduceScatter layout): after the pass rank
		// r holds the fully reduced segment r of this bucket.
		if err := c.reducePass(c.opWindow(), sub, off, c.rank-1, bvalid, op); err != nil {
			return fmt.Errorf("collective: ReduceScatterV bucket %d: %w", b, err)
		}
		mine := sub[off[c.rank]:off[c.rank+1]]
		if bvalid[c.rank] {
			copy(out, mine)
		} else {
			// No rank contributed to this segment: the dense path would have
			// summed world copies of −0.0, which is −0.0.
			for i := range mine {
				out[i] = sumIdentity
			}
		}
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
// is only read — a pooled copy travels — so the shard buffer may be reused
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
