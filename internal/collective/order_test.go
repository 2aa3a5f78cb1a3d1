package collective

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// runGroupOn executes fn concurrently on every rank of a fresh n-rank group
// (actor IDs 0..n-1) over tr and returns the per-rank results.
func runGroupOn(t *testing.T, tr transport.Transport, n int, fn func(c *Communicator) (*tensor.Tensor, error)) []*tensor.Tensor {
	t.Helper()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(tr, ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := g.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			outs[r], errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs
}

// orderPayload is rank's value for flat element i, chosen so that the sum
// over ranks depends on the association: at every element the ranks mix
// ±1e16 (whose ulp is 2) with values small enough to be absorbed or not
// depending on what they are added to first.
func orderPayload(rank, i int) float64 {
	switch (rank + i) % 4 {
	case 0:
		return 1e16
	case 1:
		return 1.25 + float64(i%5)
	case 2:
		return -1e16
	default:
		return 0.75 * float64(rank+1)
	}
}

// shardStarts returns the prefix sums of a counts table: shard r covers
// elements [starts[r], starts[r+1]) of the flat range.
func shardStarts(counts []int) []int {
	starts := make([]int, len(counts)+1)
	for r, cnt := range counts {
		starts[r+1] = starts[r] + cnt
	}
	return starts
}

// ringFold folds one element's per-rank values in ring order: the
// accumulation starts at rank start and walks up the ring, every rank adding
// its own value to the partial sum it received.
func ringFold(val func(rank int) float64, n, start int) float64 {
	return ringFoldFirst(val, n, start, n)
}

// ringFoldFirst is ringFold stopped after the first terms ranks: the partial
// sum the terms-th rank up the ring from start holds.
func ringFoldFirst(val func(rank int) float64, n, start, terms int) float64 {
	acc := val(start % n)
	for k := 1; k < terms; k++ {
		acc = val((start+k)%n) + acc
	}
	return acc
}

// wantBits fails unless got equals want bit for bit.
func wantBits(t *testing.T, what string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rank %d: %d elements, want %d", what, rank, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d elem %d = %v (%016x), want %v (%016x)", what, rank, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRingCombineOrderPinned pins every ring collective's per-element
// reduction order against a locally folded reference, with payloads whose sum
// moves when the association does. The two documented layouts:
//
//   - all-reduce (every AllReduceBucketsInPlace bucket, a one-tensor list
//     included): the balanced chunk i starts folding at rank i and walks up
//     the ring;
//   - reduce-scatter (ReduceScatterVInto): the segment rank r ends up owning
//     starts at rank r+1 and ends on r.
//
// The bucketed all-reduce is pinned as its two halves as well: after
// ReduceBucketsInPlace every element holds the partial fold the ring has
// carried to this rank, which is the complete one exactly on OwnedRanges, and
// GatherBucketsInPlace from that state — everything outside the owned ranges
// overwritten with NaN first — ends on AllReduceBucketsInPlace's bits.
//
// Both Send ownership contracts are covered: the reference-passing
// ChanTransport and the serializing dist.LocalMesh.
func TestRingCombineOrderPinned(t *testing.T) {
	transports := []struct {
		name string
		open func(t *testing.T, n int) transport.Transport
	}{
		{"chan", func(*testing.T, int) transport.Transport { return runtime.NewChanTransport() }},
		{"localmesh", func(t *testing.T, n int) transport.Transport {
			mesh, err := dist.NewLocalMesh(n, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mesh.Close() })
			return mesh
		}},
	}
	for _, tc := range transports {
		for _, n := range []int{3, 4, 5, 7} {
			t.Run(fmt.Sprintf("%s/ranks=%d", tc.name, n), func(t *testing.T) {
				pinRingOrder(t, tc.open(t, n), n)
			})
		}
	}
}

func pinRingOrder(t *testing.T, tr transport.Transport, n int) {
	// chunkOf returns the balanced chunk of an L-element buffer holding e.
	chunkOf := func(L, e int) int {
		for i := 0; i < n; i++ {
			if lo, hi := chunkRange(L, n, i); lo <= e && e < hi {
				return i
			}
		}
		panic("element outside every chunk")
	}
	allReduceWant := func(L, tag int) []float64 {
		want := make([]float64, L)
		for e := range want {
			want[e] = ringFold(func(r int) float64 { return orderPayload(r, tag+e) }, n, chunkOf(L, e))
		}
		return want
	}

	// One tensor all-reduced alone: an odd length, so chunks are unequal.
	arLen := 4*n + 3
	// AllReduceBucketsInPlace: three tensors that fuse into one 15-element
	// bucket under a 120-byte cap, then one that cannot join them and reduces
	// in its own storage.
	const fusedLen, bucketCap = 15, 15 * 8
	soloLen := 2*n + 5
	sizes := []int{5, 7, 3, soloLen}
	if got := NumBuckets(sizes, bucketCap); got != 2 {
		t.Fatalf("bucket plan has %d buckets, want 2 (one fused, one single-tensor)", got)
	}
	// Reduce-scatter: uneven shards with an empty one, several buckets.
	rsLen := 16*n + 5
	counts := unevenCounts(rsLen, n)
	const rsBucketBytes = 24 * 8
	starts := shardStarts(counts)
	shardOf := make([]int, 0, rsLen)
	for r, cnt := range counts {
		for k := 0; k < cnt; k++ {
			shardOf = append(shardOf, r)
		}
	}
	rsWant := make([]float64, rsLen)
	for e := range rsWant {
		rsWant[e] = ringFold(func(r int) float64 { return orderPayload(r, e) }, n, shardOf[e]+1)
	}

	fill := func(rank, elems, tag int) *tensor.Tensor {
		out := tensor.New(elems)
		for i := range out.Data() {
			out.Data()[i] = orderPayload(rank, tag+i)
		}
		return out
	}
	flatten := func(ts []*tensor.Tensor) (out []float64) {
		for _, t := range ts {
			out = append(out, t.Data()...)
		}
		return out
	}
	bucketed := func(r int) []*tensor.Tensor {
		// The fused tensors carry one contiguous payload from index 1000 on,
		// the single-tensor bucket its own from 2000.
		return []*tensor.Tensor{fill(r, 5, 1000), fill(r, 7, 1005), fill(r, 3, 1012), fill(r, soloLen, 2000)}
	}
	type result struct{ ar, buckets, reduced, split, dense []float64 }
	results := make([]result, n)
	runGroupOn(t, tr, n, func(c *Communicator) (*tensor.Tensor, error) {
		r := c.Rank()
		res := &results[r]

		ar := fill(r, arLen, 0)
		if err := allReduce(c, ar, OpSum); err != nil {
			return nil, err
		}
		res.ar = ar.Data()

		ts := bucketed(r)
		if err := c.AllReduceBucketsInPlace(ts, OpSum, bucketCap); err != nil {
			return nil, err
		}
		res.buckets = flatten(ts)

		// The same list through the two halves.
		ts = bucketed(r)
		if err := c.ReduceBucketsInPlace(ts, OpSum, bucketCap); err != nil {
			return nil, err
		}
		res.reduced = flatten(ts)
		owned := OwnedRanges(sizes, bucketCap, n, r)
		off := 0
		for _, half := range ts {
			for i := range half.Data() {
				if e := off + i; !inRanges(owned, e) {
					half.Data()[i] = math.NaN()
				}
			}
			off += half.Size()
		}
		if err := c.GatherBucketsInPlace(ts, bucketCap); err != nil {
			return nil, err
		}
		res.split = flatten(ts)

		dense := tensor.New(counts[r])
		if err := c.ReduceScatterVInto(dense, fill(r, rsLen, 0), counts, OpSum, rsBucketBytes); err != nil {
			return nil, err
		}
		res.dense = dense.Data()
		return nil, nil
	})

	// What the reduce half leaves on rank r. On its owned ranges, the
	// all-reduce's bits. Anywhere else in a single-tensor bucket (reduced in
	// the tensor's own storage), the fold the ring had carried to r when the
	// pass ended: chunk i folded by ranks i, i+1, … up to r, which is every
	// rank exactly where r ends the walk — chunk r+1, the owned one. (What a
	// fused bucket's tensors hold outside the owned chunk is not specified.)
	bucketsWant := append(allReduceWant(fusedLen, 1000), allReduceWant(soloLen, 2000)...)
	ownedBy := make([]int, fusedLen+soloLen)
	for r, res := range results {
		wantBits(t, "AllReduceBucketsInPlace (one tensor)", r, res.ar, allReduceWant(arLen, 0))
		wantBits(t, "AllReduceBucketsInPlace (fused bucket, single-tensor bucket)", r, res.buckets, bucketsWant)
		wantBits(t, "ReduceBucketsInPlace then GatherBucketsInPlace", r, res.split, res.buckets)
		wantBits(t, "ReduceScatterVInto", r, res.dense, rsWant[starts[r]:starts[r+1]])

		owned := OwnedRanges(sizes, bucketCap, n, r)
		for _, o := range owned {
			wantBits(t, fmt.Sprintf("ReduceBucketsInPlace owned range %v", o), r, res.reduced[o.Lo:o.Hi], bucketsWant[o.Lo:o.Hi])
			for e := o.Lo; e < o.Hi; e++ {
				ownedBy[e]++
			}
		}
		soloWant := make([]float64, soloLen)
		for e := range soloWant {
			i := chunkOf(soloLen, e)
			terms := (r-i+n)%n + 1
			soloWant[e] = ringFoldFirst(func(r int) float64 { return orderPayload(r, 2000+e) }, n, i, terms)
			if inRanges(owned, fusedLen+e) != (terms == n) {
				t.Fatalf("rank %d: single-tensor bucket elem %d folded %d of %d ranks, OwnedRanges %v", r, e, terms, n, owned)
			}
		}
		wantBits(t, "ReduceBucketsInPlace single-tensor bucket", r, res.reduced[fusedLen:], soloWant)
	}
	for e, owners := range ownedBy {
		if owners != 1 {
			t.Fatalf("elem %d is owned by %d ranks, want exactly one", e, owners)
		}
	}
}

func inRanges(rs []Range, e int) bool {
	for _, r := range rs {
		if r.Lo <= e && e < r.Hi {
			return true
		}
	}
	return false
}
