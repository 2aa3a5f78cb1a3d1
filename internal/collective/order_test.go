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
	acc := val(start % n)
	for k := 1; k < n; k++ {
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
//   - all-reduce (AllReduceInto, every AllReduceBucketsInPlace bucket): the
//     balanced chunk i starts folding at rank i and walks up the ring;
//   - reduce-scatter (ReduceScatterVInto, ReduceScatterVSparseInto): the
//     segment rank r ends up owning starts at rank r+1 and ends on r, and a
//     rank that contributes nothing to an element counts as −0.0.
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

	// AllReduceInto: an odd length, so chunks are unequal.
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
	negZero := math.Copysign(0, -1)
	rsWant := func(val func(rank, e int) float64) []float64 {
		want := make([]float64, rsLen)
		for e := range want {
			want[e] = ringFold(func(r int) float64 { return val(r, e) }, n, shardOf[e]+1)
		}
		return want
	}
	denseWant := rsWant(orderPayload)
	sparseWant := rsWant(func(r, e int) float64 {
		if lo, hi := sparseContrib(rsLen, n, r); e < lo || e >= hi {
			return negZero // what the dense filler path would contribute
		}
		return orderPayload(r, e)
	})

	fill := func(rank, elems, tag int) *tensor.Tensor {
		out := tensor.New(elems)
		for i := range out.Data() {
			out.Data()[i] = orderPayload(rank, tag+i)
		}
		return out
	}
	type result struct{ ar, fusedFlat, solo, dense, sparse []float64 }
	results := make([]result, n)
	runGroupOn(t, tr, n, func(c *Communicator) (*tensor.Tensor, error) {
		r := c.Rank()
		res := &results[r]

		ar := fill(r, arLen, 0)
		if err := c.AllReduceInto(ar, ar, OpSum); err != nil {
			return nil, err
		}
		res.ar = ar.Data()

		// The fused tensors carry one contiguous payload from index 1000 on,
		// the single-tensor bucket its own from 2000.
		ts := []*tensor.Tensor{fill(r, 5, 1000), fill(r, 7, 1005), fill(r, 3, 1012), fill(r, soloLen, 2000)}
		if err := c.AllReduceBucketsInPlace(ts, OpSum, bucketCap); err != nil {
			return nil, err
		}
		for _, fused := range ts[:3] {
			res.fusedFlat = append(res.fusedFlat, fused.Data()...)
		}
		res.solo = ts[3].Data()

		dense := tensor.New(counts[r])
		if err := c.ReduceScatterVInto(dense, fill(r, rsLen, 0), counts, OpSum, rsBucketBytes); err != nil {
			return nil, err
		}
		res.dense = dense.Data()

		// Sparse: payload only inside the contribution range, NaN canaries
		// everywhere else.
		lo, hi := sparseContrib(rsLen, n, r)
		data := tensor.New(rsLen)
		for i := range data.Data() {
			data.Data()[i] = math.NaN()
		}
		for i := lo; i < hi; i++ {
			data.Data()[i] = orderPayload(r, i)
		}
		sparse := tensor.New(counts[r])
		if err := c.ReduceScatterVSparseInto(sparse, data, counts, lo, hi, OpSum, rsBucketBytes); err != nil {
			return nil, err
		}
		res.sparse = sparse.Data()
		return nil, nil
	})

	for r, res := range results {
		wantBits(t, "AllReduceInto", r, res.ar, allReduceWant(arLen, 0))
		wantBits(t, "AllReduceBucketsInPlace fused bucket", r, res.fusedFlat, allReduceWant(fusedLen, 1000))
		wantBits(t, "AllReduceBucketsInPlace single-tensor bucket", r, res.solo, allReduceWant(soloLen, 2000))
		wantBits(t, "ReduceScatterVInto", r, res.dense, denseWant[starts[r]:starts[r+1]])
		wantBits(t, "ReduceScatterVSparseInto", r, res.sparse, sparseWant[starts[r]:starts[r+1]])
	}
}
