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
// single source of truth for the fusion rule: the executing path
// (AllReduceBucketsInPlace) and the analytic paths (NumBuckets,
// PredictBucketedAllReduce) must agree on boundaries for the
// executed-vs-analytic validation to stay meaningful.
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
// in place, coalescing consecutive tensors into flat buckets of at most
// bucketBytes (a tensor larger than the cap forms its own bucket) and ring
// all-reducing each bucket through the communicator's reusable scratch.
// Every rank must pass tensors with identical shapes in identical order —
// the same contract that makes bucketing deterministic in DDP-style gradient
// synchronization. This is the steady-state gradient-sync path: per step it
// touches only the persistent scratch and pooled chunks.
func (c *Communicator) AllReduceBucketsInPlace(ts []*tensor.Tensor, op Op, bucketBytes int) error {
	for _, b := range c.bucketPlan(ts, bucketBytes) {
		start, end := b[0], b[1]
		base := c.opWindow()
		if end-start == 1 {
			// Single-tensor bucket (the oversized-gradient case): reduce
			// directly in the tensor's own storage, no staging copies.
			if c.Size() > 1 && ts[start].Size() > 0 {
				if err := c.allReduceData(base, ts[start].Data(), op); err != nil {
					return fmt.Errorf("collective: bucket [%d,%d): %w", start, end, err)
				}
			}
			continue
		}
		elems := 0
		for i := start; i < end; i++ {
			elems += ts[i].Size()
		}
		flat := c.flatScratch(elems)
		off := 0
		for i := start; i < end; i++ {
			copy(flat[off:], ts[i].Data())
			off += ts[i].Size()
		}
		if c.Size() > 1 && elems > 0 {
			if err := c.allReduceData(base, flat, op); err != nil {
				return fmt.Errorf("collective: bucket [%d,%d): %w", start, end, err)
			}
		}
		off = 0
		for i := start; i < end; i++ {
			ts[i].CopyFrom(flat[off : off+ts[i].Size()])
			off += ts[i].Size()
		}
	}
	return nil
}

// NumBuckets reports how many buckets AllReduceBucketsInPlace would form for
// the given tensor sizes — exposed so cost models and tests can predict the
// latency term without running the collective.
func NumBuckets(sizes []int, bucketBytes int) int {
	return len(bucketBoundaries(sizes, bucketBytes))
}
