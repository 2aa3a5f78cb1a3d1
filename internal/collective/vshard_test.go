package collective

import (
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
)

// unevenCounts builds a deterministic uneven partition of elems over n shards
// that always contains an empty shard for n >= 2: the balanced partition with
// the middle rank's allotment handed to its successor.
func unevenCounts(elems, n int) []int {
	counts := EvenCounts(elems, n)
	if n >= 2 {
		z := n / 2
		counts[(z+1)%n] += counts[z]
		counts[z] = 0
	}
	return counts
}

func TestEvenCountsMatchesChunkRange(t *testing.T) {
	for _, n := range []int{1, 3, 7, 64} {
		for _, parts := range []int{1, 2, 3, 5, 8} {
			counts := EvenCounts(n, parts)
			sum := 0
			for _, c := range counts {
				sum += c
			}
			if sum != n || len(counts) != parts {
				t.Fatalf("EvenCounts(%d,%d) = %v", n, parts, counts)
			}
		}
	}
}

// TestReduceScatterVIntoMatchesLocalSum checks the variable-shard
// reduce-scatter across every world size 1..8 (all non-powers-of-two
// included), even and uneven counts tables (uneven always contains an empty
// shard), and bucket caps that force both the single-bucket and the
// many-bucket path.
func TestReduceScatterVIntoMatchesLocalSum(t *testing.T) {
	const elems = 1003
	for n := 1; n <= 8; n++ {
		for _, layout := range []string{"even", "uneven"} {
			for _, bucketBytes := range []int{0, 512} {
				counts := EvenCounts(elems, n)
				if layout == "uneven" {
					counts = unevenCounts(elems, n)
				}
				t.Run(fmt.Sprintf("ranks=%d/%s/bucket=%d", n, layout, bucketBytes), func(t *testing.T) {
					want := make([]float64, elems)
					for r := 0; r < n; r++ {
						for i, v := range rankTensor(r, elems).Data() {
							want[i] += v
						}
					}
					outs := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
						dst := tensor.New(counts[c.Rank()])
						err := c.ReduceScatterVInto(dst, rankTensor(c.Rank(), elems), counts, OpSum, bucketBytes)
						return dst, err
					})
					starts := shardStarts(counts)
					for r, got := range outs {
						lo, hi := starts[r], starts[r+1]
						for i, v := range got.Data() {
							if math.Float64bits(v) != math.Float64bits(want[lo+i]) {
								t.Fatalf("rank %d shard [%d,%d) elem %d = %v, want %v", r, lo, hi, i, v, want[lo+i])
							}
						}
					}
				})
			}
		}
	}
}

// TestAllGatherVIntoReassemblesShards checks the variable-shard all-gather:
// every rank ends up with the concatenation of all shards at their counts
// offsets, for even/uneven (empty-shard) layouts across worlds 1..8.
func TestAllGatherVIntoReassemblesShards(t *testing.T) {
	const elems = 977
	for n := 1; n <= 8; n++ {
		for _, layout := range []string{"even", "uneven"} {
			counts := EvenCounts(elems, n)
			if layout == "uneven" {
				counts = unevenCounts(elems, n)
			}
			t.Run(fmt.Sprintf("ranks=%d/%s", n, layout), func(t *testing.T) {
				starts := shardStarts(counts)
				want := make([]float64, elems)
				for r := 0; r < n; r++ {
					for i := starts[r]; i < starts[r+1]; i++ {
						want[i] = float64(r+1)*1000 + float64(i)
					}
				}
				outs := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
					lo, hi := starts[c.Rank()], starts[c.Rank()+1]
					shard := tensor.New(hi - lo)
					for i := lo; i < hi; i++ {
						shard.Data()[i-lo] = float64(c.Rank()+1)*1000 + float64(i)
					}
					dst := tensor.New(elems)
					err := c.AllGatherVInto(dst, shard, counts)
					// The shard buffer must be reusable immediately: scribble
					// over it before returning to catch aliasing with
					// in-flight ring chunks.
					for i := range shard.Data() {
						shard.Data()[i] = -7
					}
					return dst, err
				})
				for r, got := range outs {
					for i, v := range got.Data() {
						if v != want[i] {
							t.Fatalf("rank %d elem %d = %v, want %v", r, i, v, want[i])
						}
					}
				}
			})
		}
	}
}

// TestReduceScatterVThenAllGatherVEqualsAllReduce pins the composition the
// sharded epilogue relies on: RS-V followed by AGV over the same counts table
// reproduces the dense AllReduce result bit-for-bit on every rank.
func TestReduceScatterVThenAllGatherVEqualsAllReduce(t *testing.T) {
	const elems = 640
	for _, n := range []int{2, 3, 5, 7, 8} {
		counts := unevenCounts(elems, n)
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			dense := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
				out := rankTensor(c.Rank(), elems)
				return out, c.AllReduceInto(out, out, OpSum)
			})
			sharded := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
				shard := tensor.New(counts[c.Rank()])
				if err := c.ReduceScatterVInto(shard, rankTensor(c.Rank(), elems), counts, OpSum, 0); err != nil {
					return nil, err
				}
				dst := tensor.New(elems)
				err := c.AllGatherVInto(dst, shard, counts)
				return dst, err
			})
			for r := range sharded {
				for i, v := range sharded[r].Data() {
					if math.Float64bits(v) != math.Float64bits(dense[r].Data()[i]) {
						t.Fatalf("rank %d elem %d: sharded %v != dense %v", r, i, v, dense[r].Data()[i])
					}
				}
			}
		})
	}
}

// TestVShardValidation exercises the error paths: malformed counts tables and
// mis-sized buffers must be rejected before any traffic is sent.
func TestVShardValidation(t *testing.T) {
	tr := runtime.NewChanTransport()
	g, err := NewGroup(tr, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := g.Comm(0)
	full := tensor.New(10)
	shard := tensor.New(5)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"rsv-bad-len", func() error { return c.ReduceScatterVInto(shard, full, []int{10}, OpSum, 0) }},
		{"rsv-negative", func() error { return c.ReduceScatterVInto(shard, full, []int{12, -2}, OpSum, 0) }},
		{"rsv-bad-sum", func() error { return c.ReduceScatterVInto(shard, full, []int{4, 4}, OpSum, 0) }},
		{"rsv-bad-dst", func() error { return c.ReduceScatterVInto(tensor.New(3), full, []int{5, 5}, OpSum, 0) }},
		{"agv-bad-len", func() error { return c.AllGatherVInto(full, shard, []int{5, 4, 1}) }},
		{"agv-bad-sum", func() error { return c.AllGatherVInto(full, shard, []int{5, 6}) }},
		{"agv-bad-shard", func() error { return c.AllGatherVInto(full, tensor.New(4), []int{5, 5}) }},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// vshardHarness pre-spawns one goroutine per rank running a full sharded
// exchange round (refill contribution → ReduceScatterVInto → AllGatherVInto)
// so the measurement loop adds no goroutine or closure allocations.
type vshardHarness struct {
	n      int
	counts []int
	kick   []chan struct{}
	done   chan error
	fulls  []*tensor.Tensor
	close  func()
}

func newVShardHarness(tb testing.TB, n, elems int, counts []int) *vshardHarness {
	tb.Helper()
	tr := runtime.NewChanTransport()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(tr, ranks, 0)
	if err != nil {
		tb.Fatal(err)
	}
	h := &vshardHarness{
		n:      n,
		counts: counts,
		kick:   make([]chan struct{}, n),
		done:   make(chan error, n),
		fulls:  make([]*tensor.Tensor, n),
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < n; r++ {
		h.kick[r] = make(chan struct{})
		full := tensor.GetScratch(elems)
		h.fulls[r] = full
		shard := tensor.GetScratch(counts[r])
		comm, err := g.Comm(r)
		if err != nil {
			tb.Fatal(err)
		}
		wg.Add(1)
		go func(r int, comm *Communicator, full, shard *tensor.Tensor) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-h.kick[r]:
				}
				// RS-V consumes full as scratch, so refill the contribution
				// every round (allocation-free).
				for i, d := 0, full.Data(); i < len(d); i++ {
					d[i] = float64(r + 1)
				}
				if err := comm.ReduceScatterVInto(shard, full, counts, OpSum, DefaultBucketBytes); err != nil {
					h.done <- err
					continue
				}
				h.done <- comm.AllGatherVInto(full, shard, counts)
			}
		}(r, comm, full, shard)
	}
	h.close = func() { close(stop); wg.Wait() }
	return h
}

func (h *vshardHarness) round() error {
	for r := 0; r < h.n; r++ {
		h.kick[r] <- struct{}{}
	}
	var first error
	for r := 0; r < h.n; r++ {
		if err := <-h.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (h *vshardHarness) warm(tb testing.TB) {
	tb.Helper()
	rounds := GroupTagWindow/(2*h.n+2) + 2
	for i := 0; i < rounds; i++ {
		if err := h.round(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestVShardZeroAllocSteadyState is the allocation regression gate for the
// variable-shard exchange, matching the AllReduce one: once mailboxes and
// scratch pools are warm, a ReduceScatterVInto + AllGatherVInto round over an
// uneven counts table (empty shard included) must not allocate at all.
func TestVShardZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is only meaningful without -race")
	}
	const n, elems = 4, 1 << 14
	counts := unevenCounts(elems, n)
	h := newVShardHarness(t, n, elems, counts)
	defer h.close()
	h.warm(t)

	// The scratch pool is sync.Pool-backed; a GC mid-measurement would drop
	// its contents and charge the refill to the collective.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()

	allocs := testing.AllocsPerRun(50, func() {
		if err := h.round(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state sharded exchange allocates %.2f objects per round, want 0", allocs)
	}

	// Sanity: the round actually reduced — every element is sum(1..n).
	want := float64(n * (n + 1) / 2)
	for r, full := range h.fulls {
		for i, v := range full.Data() {
			if v != want {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, v, want)
			}
		}
	}
}
