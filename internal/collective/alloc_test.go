package collective

import (
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
)

// ringHarness pre-spawns one goroutine per rank that all-reduces its buffer
// in place (AllReduceBucketsInPlace over a one-tensor list: the tensor's own
// storage, a cached fusion plan) each time it is kicked, so measurement loops
// add no goroutine or closure allocations of their own.
type ringHarness struct {
	n     int
	kick  []chan struct{}
	done  chan error
	bufs  []*tensor.Tensor
	close func()
}

func newRingHarness(tb testing.TB, n, elems int) *ringHarness {
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
	h := &ringHarness{
		n:    n,
		kick: make([]chan struct{}, n),
		done: make(chan error, n),
		bufs: make([]*tensor.Tensor, n),
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < n; r++ {
		h.kick[r] = make(chan struct{})
		buf := tensor.GetScratch(elems)
		for i, d := 0, buf.Data(); i < elems; i++ {
			d[i] = float64(r + 1)
		}
		h.bufs[r] = buf
		comm, err := g.Comm(r)
		if err != nil {
			tb.Fatal(err)
		}
		wg.Add(1)
		go func(r int, comm *Communicator, buf *tensor.Tensor) {
			defer wg.Done()
			bufs := []*tensor.Tensor{buf}
			for {
				select {
				case <-stop:
					return
				case <-h.kick[r]:
				}
				h.done <- comm.AllReduceBucketsInPlace(bufs, OpSum, DefaultBucketBytes)
			}
		}(r, comm, buf)
	}
	h.close = func() { close(stop); wg.Wait() }
	return h
}

// round triggers one collective round on every rank and waits for them all.
func (h *ringHarness) round() error {
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

// warm walks the group's tag window all the way around so every mailbox and
// pooled chunk the steady state needs already exists.
func (h *ringHarness) warm(tb testing.TB) {
	tb.Helper()
	rounds := GroupTagWindow/h.opStride() + 2
	for i := 0; i < rounds; i++ {
		if err := h.round(); err != nil {
			tb.Fatal(err)
		}
	}
}

func (h *ringHarness) opStride() int { return 2*h.n + 2 }

// TestAllReduceZeroAllocSteadyState is the allocation regression gate for
// the whole collective stack: once mailboxes and scratch pools are warm, an
// in-place ring AllReduce must not allocate at all — not in the ring, not in
// the transport, not in the chunk pool.
func TestAllReduceZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is only meaningful without -race")
	}
	t.Run("AllReduceBucketsInPlace", func(t *testing.T) {
		const n, elems = 4, 1 << 14
		h := newRingHarness(t, n, elems)
		defer h.close()
		h.warm(t)

		// The scratch pool is sync.Pool-backed; a GC mid-measurement would
		// drop its contents and charge the refill to the collective.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		goruntime.GC()

		allocs := testing.AllocsPerRun(50, func() {
			if err := h.round(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("steady-state AllReduceBucketsInPlace allocates %.2f objects per step, want 0", allocs)
		}
	})
}

// TestOneTensorAllReduceMatchesSum checks one in-place round of the harness
// against the locally computed sum.
func TestOneTensorAllReduceMatchesSum(t *testing.T) {
	const n, elems = 3, 1000
	h := newRingHarness(t, n, elems)
	defer h.close()
	if err := h.round(); err != nil {
		t.Fatal(err)
	}
	// Every rank contributed the constant r+1, so one round leaves
	// sum(1..n) everywhere.
	want := float64(n * (n + 1) / 2)
	for r, buf := range h.bufs {
		for i, v := range buf.Data() {
			if v != want {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, v, want)
			}
		}
	}
}

// BenchmarkAllReduce measures the steady-state bucketed ring across group
// sizes (run with -benchmem: allocs/op should stay at the harness's
// coordination floor, not scale with payload).
func BenchmarkAllReduce(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			const elems = 1 << 16
			h := newRingHarness(b, n, elems)
			defer h.close()
			h.warm(b)
			b.SetBytes(int64(8 * elems))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.round(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
