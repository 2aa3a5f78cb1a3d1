package collective

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport/transporttest"
)

// lendList is a gradient list that exercises every bucket shape over real
// sockets: sizes no group size divides, a fused bucket with an empty tensor
// inside, a tensor larger than the cap on its own, a fused bucket of a single
// element and a large neighbour. Every non-trivial segment is past the wire's
// coalescing threshold for five ranks, so on a LocalMesh it is really lent.
var lendList = []int{3001, 0, 4099, 12007, 1, 4999}

const lendBucketCap = 8000 * 8 // buckets [3001 0 4099] [12007] [1 4999]

func lendTensors(rank int) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(lendList))
	e := 0
	for i, sz := range lendList {
		ts[i] = tensor.New(sz)
		for j := range ts[i].Data() {
			ts[i].Data()[j] = orderPayload(rank, e)
			e++
		}
	}
	return ts
}

// flatten concatenates a tensor list into one tensor, for comparison.
func flatten(ts []*tensor.Tensor) *tensor.Tensor {
	var flat []float64
	for _, t := range ts {
		flat = append(flat, t.Data()...)
	}
	return tensor.MustFromSlice(flat, len(flat))
}

// ringSuite is every collective that lends, back to back on one communicator
// the way a step issues them, returning everything they produced.
func ringSuite(c *Communicator) (*tensor.Tensor, error) {
	n, rank := c.Size(), c.Rank()
	var outs []*tensor.Tensor

	// The bucketed all-reduce as the step epilogue runs it: reduce half,
	// elementwise work on the owned ranges, gather half — and then the lists
	// are written again, which is what a late settle would corrupt.
	for round := 0; round < 2; round++ {
		ts := lendTensors(rank + round)
		if err := c.ReduceBucketsInPlace(ts, OpSum, lendBucketCap); err != nil {
			return nil, err
		}
		flat := flatten(ts)
		for _, o := range OwnedRanges(lendList, lendBucketCap, n, rank) {
			for e := o.Lo; e < o.Hi; e++ {
				flat.Data()[e] *= 0.5
			}
		}
		off := 0
		for _, t := range ts {
			t.CopyFrom(flat.Data()[off : off+t.Size()])
			off += t.Size()
		}
		if err := c.GatherBucketsInPlace(ts, lendBucketCap); err != nil {
			return nil, err
		}
		outs = append(outs, flatten(ts))
		for _, t := range ts {
			clear(t.Data()) // the caller's again
			tensor.Recycle(t)
		}
	}

	buf := flatten(lendTensors(rank))
	if err := allReduce(c, buf, OpMax); err != nil {
		return nil, err
	}
	outs = append(outs, buf.Clone())
	clear(buf.Data())

	counts := EvenCounts(buf.Size(), n)
	counts[0], counts[n-1] = counts[0]+counts[n-1], 0 // an empty shard
	src := flatten(lendTensors(rank))
	shard := tensor.New(counts[rank])
	if err := c.ReduceScatterVInto(shard, src, counts, OpSum, lendBucketCap); err != nil {
		return nil, err
	}
	clear(src.Data())
	full := tensor.New(buf.Size())
	if err := c.AllGatherVInto(full, shard, counts); err != nil {
		return nil, err
	}
	outs = append(outs, full.Clone())
	clear(full.Data())

	rows := tensor.New(3, 700)
	for i := range rows.Data() {
		rows.Data()[i] = orderPayload(rank, i)
	}
	gathered := tensor.New(3*n, 700)
	if err := c.AllGatherInto(gathered, rows); err != nil {
		return nil, err
	}
	outs = append(outs, tensor.MustFromSlice(gathered.Data(), gathered.Size()))

	for root := 0; root < n; root++ {
		b := flatten(lendTensors(rank))
		if err := c.BroadcastInto(b, root); err != nil {
			return nil, err
		}
		outs = append(outs, b.Clone())
		clear(b.Data())
	}
	return flatten(outs), nil
}

// TestRingHonoursTheLendingRule runs the ring suite on real sockets with
// every transport call watched by a LendChecker: no segment a pass has lent
// is written or recycled before the pass settles, every loan is settled by
// the time a collective returns, and the results are bit for bit the chan
// transport's, where nothing is ever borrowed.
func TestRingHonoursTheLendingRule(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			want := runGroupOn(t, runtime.NewChanTransport(), n, ringSuite)
			mesh, err := dist.NewLocalMesh(n, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			check := transporttest.NewLendChecker(t)
			got := runGroupOn(t, check.Wrap(mesh), n, ringSuite)
			for r := range want {
				w, g := want[r].Data(), got[r].Data()
				if len(w) != len(g) {
					t.Fatalf("rank %d: %d result elements over sockets, %d in process", r, len(g), len(w))
				}
				for i := range w {
					if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
						t.Fatalf("rank %d element %d: %v over sockets, %v in process", r, i, g[i], w[i])
					}
				}
			}
			if check.Lends() == 0 {
				t.Fatal("the suite lent nothing")
			}
		})
	}
}
