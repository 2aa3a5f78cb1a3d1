package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// runGroup is runGroupOn over a fresh in-process transport.
func runGroup(t *testing.T, n int, fn func(c *Communicator) (*tensor.Tensor, error)) []*tensor.Tensor {
	t.Helper()
	return runGroupOn(t, runtime.NewChanTransport(), n, fn)
}

// rankTensor builds a deterministic per-rank tensor.
func rankTensor(rank, elems int) *tensor.Tensor {
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(rank+1)*100 + float64(i)
	}
	t, _ := tensor.FromSlice(data, elems)
	return t
}

// allReduce all-reduces t in its own storage: AllReduceBucketsInPlace over a
// one-tensor list, which is reducePass(first = rank) then gatherPass(first =
// rank+1) over t's data.
func allReduce(c *Communicator, t *tensor.Tensor, op Op) error {
	return c.AllReduceBucketsInPlace([]*tensor.Tensor{t}, op, 0)
}

// TestAllReduceSumMatchesLocalSum checks the headline contract across ring
// sizes 2..8 (including every non-power-of-two) and awkward tensor sizes:
// empty, scalar-sized, odd, smaller than the ring, and not divisible by it.
func TestAllReduceSumMatchesLocalSum(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for _, elems := range []int{0, 1, 3, 5, 17, 64, 1000} {
			t.Run(fmt.Sprintf("ranks=%d/elems=%d", n, elems), func(t *testing.T) {
				want := make([]float64, elems)
				for r := 0; r < n; r++ {
					for i, v := range rankTensor(r, elems).Data() {
						want[i] += v
					}
				}
				outs := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
					out := rankTensor(c.Rank(), elems)
					return out, allReduce(c, out, OpSum)
				})
				wantT, _ := tensor.FromSlice(want, elems)
				for r, got := range outs {
					if !tensor.AllClose(got, wantT, 1e-12, 1e-12) {
						t.Fatalf("rank %d: got %v want %v", r, got, wantT)
					}
				}
			})
		}
	}
}

// TestReduceScatterThenAllGatherEqualsAllReduce exercises the composition
// identity over the balanced partition: reduce-scattering into EvenCounts
// shards and gathering them back reassembles the full reduction.
func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		for _, elems := range []int{8, 29} {
			counts := EvenCounts(elems, n)
			outs := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
				shard := tensor.New(counts[c.Rank()])
				if err := c.ReduceScatterVInto(shard, rankTensor(c.Rank(), elems), counts, OpSum, 0); err != nil {
					return nil, err
				}
				out := tensor.New(elems)
				return out, c.AllGatherVInto(out, shard, counts)
			})
			want := make([]float64, elems)
			for r := 0; r < n; r++ {
				for i, v := range rankTensor(r, elems).Data() {
					want[i] += v
				}
			}
			wantT, _ := tensor.FromSlice(want, elems)
			for r, got := range outs {
				if !tensor.AllClose(got, wantT, 1e-12, 1e-12) {
					t.Fatalf("n=%d elems=%d rank %d: got %v want %v", n, elems, r, got, wantT)
				}
			}
		}
	}
}

func TestBarrierCompletesAndOpsStayInLockstep(t *testing.T) {
	// Several barriers followed by an all-reduce: if any rank's op counter
	// drifted, tags would mismatch and the transport timeout would fire.
	outs := runGroup(t, 6, func(c *Communicator) (*tensor.Tensor, error) {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return nil, err
			}
		}
		out := tensor.Scalar(float64(c.Rank()))
		return out, allReduce(c, out, OpSum)
	})
	for r, got := range outs {
		if got.Data()[0] != 15 { // 0+1+..+5
			t.Fatalf("rank %d: %v", r, got)
		}
	}
}

// TestBucketedAllReduce forces multiple buckets and checks shape-preserving
// reassembly.
func TestBucketedAllReduce(t *testing.T) {
	const n = 3
	shapes := [][]int{{4, 4}, {7}, {2, 3, 2}, {1}, {5, 5}}
	mk := func(rank int) []*tensor.Tensor {
		ts := make([]*tensor.Tensor, len(shapes))
		for i, s := range shapes {
			elems := tensor.NumElements(s)
			data := make([]float64, elems)
			for j := range data {
				data[j] = float64(rank+1) * float64(i*100+j)
			}
			ts[i], _ = tensor.FromSlice(data, s...)
		}
		return ts
	}
	// 100-byte buckets force one bucket per tensor except the smallest.
	for _, bucketBytes := range []int{100, DefaultBucketBytes} {
		tr := runtime.NewChanTransport()
		g, err := NewGroup(tr, []int{0, 1, 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]*tensor.Tensor, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, _ := g.Comm(r)
				results[r] = mk(r)
				errs[r] = c.AllReduceBucketsInPlace(results[r], OpSum, bucketBytes)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("bucketBytes=%d rank %d: %v", bucketBytes, r, err)
			}
		}
		// Reference: local sum over ranks.
		for i, s := range shapes {
			elems := tensor.NumElements(s)
			want := make([]float64, elems)
			for r := 0; r < n; r++ {
				for j, v := range mk(r)[i].Data() {
					want[j] += v
				}
			}
			wantT, _ := tensor.FromSlice(want, s...)
			for r := 0; r < n; r++ {
				if !tensor.AllClose(results[r][i], wantT, 1e-12, 1e-12) {
					t.Fatalf("bucketBytes=%d tensor %d rank %d mismatch", bucketBytes, i, r)
				}
			}
		}
	}
}

func TestNumBuckets(t *testing.T) {
	// 8-byte elems: sizes 10,10,10 with 200-byte cap -> (10+10)*8=160 fits,
	// adding third would be 240 > 200 -> 2 buckets.
	if got := NumBuckets([]int{10, 10, 10}, 200); got != 2 {
		t.Fatalf("NumBuckets = %d, want 2", got)
	}
	if got := NumBuckets([]int{1000}, 8); got != 1 {
		t.Fatalf("oversized tensor must still form one bucket, got %d", got)
	}
	if got := NumBuckets(nil, 100); got != 0 {
		t.Fatalf("no tensors -> 0 buckets, got %d", got)
	}
}

// TestCollectivesCoexistWithPipelineP2P runs a gradient-style all-reduce
// concurrently with pipeline point-to-point traffic on the same transport
// and actors, using low tags like the taskgraph compiler does — the
// deterministic tag spaces must keep them from ever matching each other.
func TestCollectivesCoexistWithPipelineP2P(t *testing.T) {
	const n, elems, p2pMsgs = 4, 501, 200
	tr := runtime.NewChanTransport()
	ranks := []int{0, 1, 2, 3}
	g, err := NewGroup(tr, ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	collErrs := make([]error, n)
	outs := make([]*tensor.Tensor, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, _ := g.Comm(r)
			// Interleave several collectives to stress the tag sequencing.
			for i := 0; i < 3; i++ {
				outs[r] = rankTensor(r, elems)
				if err := allReduce(c, outs[r], OpSum); err != nil {
					collErrs[r] = err
					return
				}
			}
		}(r)
	}
	// Pipeline-style traffic: actor i sends to i+1 with small sequential tags.
	p2pErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := 0; m < p2pMsgs; m++ {
			payload := tensor.Scalar(float64(m))
			tr.Send(0, 1, m, payload)
			got, err := tr.Recv(1, 0, m)
			if err != nil {
				p2pErr <- err
				return
			}
			if got.Data()[0] != float64(m) {
				p2pErr <- fmt.Errorf("p2p message %d corrupted: %v", m, got)
				return
			}
		}
		p2pErr <- nil
	}()
	wg.Wait()
	if err := <-p2pErr; err != nil {
		t.Fatal(err)
	}
	for r, err := range collErrs {
		if err != nil {
			t.Fatalf("collective rank %d: %v", r, err)
		}
	}
	want := make([]float64, elems)
	for r := 0; r < n; r++ {
		for i, v := range rankTensor(r, elems).Data() {
			want[i] += v
		}
	}
	wantT, _ := tensor.FromSlice(want, elems)
	for r := 0; r < n; r++ {
		if !tensor.AllClose(outs[r], wantT, 1e-12, 1e-12) {
			t.Fatalf("rank %d collective result corrupted by P2P traffic", r)
		}
	}
}

// wrongSizeTransport is a stub peer: it swallows every Send and answers every
// Recv with a pooled chunk of elems elements, whatever was expected.
type wrongSizeTransport struct{ elems int }

func (wrongSizeTransport) Send(from, to, tag int, t *tensor.Tensor)                {}
func (wrongSizeTransport) SendLent(from, to, tag int, payload, residual []float64) {}
func (wrongSizeTransport) Settle(from, to int) error                               { return nil }
func (w wrongSizeTransport) Recv(to, from, tag int) (*tensor.Tensor, error) {
	return tensor.GetScratch(w.elems), nil
}
func (wrongSizeTransport) Err() error   { return nil }
func (wrongSizeTransport) Poison(error) {}

// TestWrongSizeChunkIsRecycled pins the receive helper's failure path on
// every collective that receives: a chunk of the wrong size is an error
// naming the rank and both sizes, and the received pooled tensor goes back to
// the pool instead of being dropped to the garbage collector.
func TestWrongSizeChunkIsRecycled(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	recycled := obs.Counter("pool/recycle")
	counts := []int{4, 4}
	cases := []struct {
		name string
		want int // elements the first receive expects
		call func(c *Communicator) error
	}{
		{"AllReduceBucketsInPlace", 4, func(c *Communicator) error {
			return c.AllReduceBucketsInPlace([]*tensor.Tensor{tensor.New(8)}, OpSum, 0)
		}},
		{"ReduceScatterVInto", 4, func(c *Communicator) error {
			return c.ReduceScatterVInto(tensor.New(4), tensor.New(8), counts, OpSum, 0)
		}},
		{"GatherBucketsInPlace", 4, func(c *Communicator) error {
			return c.GatherBucketsInPlace([]*tensor.Tensor{tensor.New(8)}, 0)
		}},
		{"AllGatherVInto", 4, func(c *Communicator) error {
			return c.AllGatherVInto(tensor.New(8), tensor.New(4), counts)
		}},
		{"AllGatherInto", 4, func(c *Communicator) error {
			return c.AllGatherInto(tensor.New(8), tensor.New(4))
		}},
		{"Barrier", 1, func(c *Communicator) error { return c.Barrier() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGroup(wrongSizeTransport{elems: 3}, []int{0, 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := g.Comm(1)
			if err != nil {
				t.Fatal(err)
			}
			before := obs.CounterNow(recycled)
			err = tc.call(c)
			wantMsg := fmt.Sprintf("rank 1 received chunk of 3 elements, expected %d", tc.want)
			if err == nil || !strings.Contains(err.Error(), wantMsg) {
				t.Fatalf("error %v, want one containing %q", err, wantMsg)
			}
			if got := obs.CounterNow(recycled) - before; got != 1 {
				t.Fatalf("pool/recycle advanced by %d, want 1 (the wrong-size chunk)", got)
			}
		})
	}
}

// Rank returns this communicator's rank within the group.
func (c *Communicator) Rank() int { return c.rank }
