package collective

import (
	"fmt"

	"repro/internal/tensor"
)

// DefaultBucketBytes is the default gradient-fusion bucket size (4 MiB, the
// NCCL/DDP-style tradeoff: large enough to amortize per-message latency,
// small enough to overlap with remaining compute).
const DefaultBucketBytes = 4 << 20

const bytesPerElem = 8 // float64

// bucketBoundaries partitions consecutive tensor sizes into fusion buckets
// of at most bucketBytes (an oversized tensor forms its own bucket) and
// returns the [start, end) tensor-index range of each bucket. It is the
// single source of truth for the fusion rule: the executing path (the two
// halves of AllReduceBucketsInPlace, OwnedRanges) and the
// analytic paths (NumBuckets, PredictBucketedAllReduce) must agree on
// boundaries for the executed-vs-analytic validation to stay meaningful.
func bucketBoundaries(sizes []int, bucketBytes int) [][2]int {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	var out [][2]int
	for start := 0; start < len(sizes); {
		end := start + 1
		elems := sizes[start]
		for end < len(sizes) && (elems+sizes[end])*bytesPerElem <= bucketBytes {
			elems += sizes[end]
			end++
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// AllReduceBucketsInPlace all-reduces a list of rank-private mutable tensors
// in place: ReduceBucketsInPlace, then GatherBucketsInPlace over the same
// list. Every rank must pass tensors with identical shapes in identical order
// — the same contract that makes bucketing deterministic in DDP-style
// gradient synchronization. This is the steady-state gradient-sync path: per
// step it touches only the persistent scratch and pooled chunks.
func (c *Communicator) AllReduceBucketsInPlace(ts []*tensor.Tensor, op Op, bucketBytes int) error {
	if err := c.ReduceBucketsInPlace(ts, op, bucketBytes); err != nil {
		return err
	}
	return c.GatherBucketsInPlace(ts, bucketBytes)
}

// ReduceBucketsInPlace is the reduce half of the bucketed all-reduce:
// consecutive tensors coalesce into buckets of at most bucketBytes (a tensor
// larger than the cap forms its own bucket) and each bucket runs one reduce
// pass in the all-reduce layout. On return this rank holds the fully reduced
// values of exactly OwnedRanges(sizes of ts, bucketBytes, Size(), Rank()) —
// bit for bit what AllReduceBucketsInPlace would have left there — and
// nothing of use anywhere else (partial sums, or its own contribution).
func (c *Communicator) ReduceBucketsInPlace(ts []*tensor.Tensor, op Op, bucketBytes int) error {
	return c.eachBucket(ts, bucketBytes, false)
}

// GatherBucketsInPlace is the gather half: every rank enters holding the
// final values of its OwnedRanges of ts (anything may be in the rest) and
// leaves with every element of every tensor filled in. ts need not be the
// list the reduce half ran over, only one of the same sizes cut by the same
// bucketBytes — the distributed step epilogue reduces gradients, updates the
// owned ranges of the parameters, and gathers the parameters.
func (c *Communicator) GatherBucketsInPlace(ts []*tensor.Tensor, bucketBytes int) error {
	return c.eachBucket(ts, bucketBytes, true)
}

// eachBucket is the one body of both halves: it walks the fusion buckets of
// ts, consuming one tag window per bucket (also for buckets a single rank or
// zero elements make trivial, to keep ranks in lockstep), and runs the ring
// pass of the all-reduce layout — reducePass(first = rank), or
// gatherPass(first = rank+1) — over each bucket's storage: a single tensor's
// own, or the communicator's flat scratch for a fused bucket. Around a fused
// bucket only what the pass reads and what it makes final is copied: the
// reduce half packs every tensor and unpacks the owned chunk, the gather half
// packs the owned chunk and unpacks every tensor. Once ArmErrorFeedback has
// run, the reduce half hands each bucket's residual to its pass.
func (c *Communicator) eachBucket(ts []*tensor.Tensor, bucketBytes int, gather bool) error {
	n := c.Size()
	for i, b := range c.bucketPlan(ts, bucketBytes) {
		bucket := ts[b[0]:b[1]]
		base := c.opWindow()
		elems := 0
		for _, t := range bucket {
			elems += t.Size()
		}
		if n == 1 || elems == 0 {
			continue
		}
		data := bucket[0].Data()
		// What a fused bucket copies in and out: the chunk this rank owns on
		// the side where only that chunk means anything.
		inLo, inHi := 0, elems
		outLo, outHi := chunkRange(elems, n, (c.rank+1)%n)
		if gather {
			inLo, inHi, outLo, outHi = outLo, outHi, inLo, inHi
		}
		if len(bucket) > 1 {
			data = c.flatScratch(elems)
			fuse(bucket, data, inLo, inHi, true)
		}
		var err error
		if off := c.evenOffsets(elems); gather {
			err = c.gatherPass(base, data, off, c.rank+1)
		} else {
			err = c.reducePass(base, data, off, c.rank, c.residual(i, off[c.rank+1]-off[c.rank]))
		}
		if err != nil {
			return fmt.Errorf("collective: bucket [%d,%d): %w", b[0], b[1], err)
		}
		if len(bucket) > 1 {
			fuse(bucket, data, outLo, outHi, false)
		}
	}
	return nil
}

// fuse copies elements [lo, hi) of the concatenation of ts into the same
// range of flat (pack) or back out of it.
func fuse(ts []*tensor.Tensor, flat []float64, lo, hi int, pack bool) {
	off := 0
	for _, t := range ts {
		d := t.Data()
		a, b := max(lo, off), min(hi, off+len(d))
		if a < b {
			if pack {
				copy(flat[a:b], d[a-off:b-off])
			} else {
				copy(d[a-off:b-off], flat[a:b])
			}
		}
		off += len(d)
	}
}

// Range is a half-open element range [Lo, Hi) of the concatenation of a
// tensor list, in list order.
type Range struct{ Lo, Hi int }

// bucketChunks calls f with the range, in the concatenation of a tensor list
// of the given sizes, of balanced chunk `chunk` of every fusion bucket, in
// list order. It reads the boundaries and the chunking the executing halves
// do, so what it names and what the ring moves cannot disagree.
func bucketChunks(sizes []int, bucketBytes, n, chunk int, f func(lo, hi int)) {
	off := 0
	for _, b := range bucketBoundaries(sizes, bucketBytes) {
		elems := 0
		for _, sz := range sizes[b[0]:b[1]] {
			elems += sz
		}
		lo, hi := chunkRange(elems, n, chunk)
		f(off+lo, off+hi)
		off += elems
	}
}

// OwnedRanges returns the ranges of a tensor list (sizes, in list order)
// that the reduce half leaves fully reduced on the given rank of an n-rank
// group and that the gather half takes from it: in every fusion bucket, the
// balanced chunk rank+1 — where the all-reduce layout's reduce pass ends.
// Ranges ascend, are never empty, and touching ones are merged; over the n
// ranks they partition the list.
func OwnedRanges(sizes []int, bucketBytes, n, rank int) []Range {
	var out []Range
	bucketChunks(sizes, bucketBytes, n, (rank+1)%n, func(lo, hi int) {
		switch {
		case lo == hi:
		case len(out) > 0 && out[len(out)-1].Hi == lo:
			out[len(out)-1].Hi = hi
		default:
			out = append(out, Range{lo, hi})
		}
	})
	return out
}

// NumBuckets reports how many buckets AllReduceBucketsInPlace would form for
// the given tensor sizes — exposed so cost models and tests can predict the
// latency term without running the collective.
func NumBuckets(sizes []int, bucketBytes int) int {
	return len(bucketBoundaries(sizes, bucketBytes))
}
