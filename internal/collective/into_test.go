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

// TestAllGatherIntoMatchesAllGather checks AllGatherInto against the
// definition of an all-gather — dst is the rank-order concatenation of the
// shards along axis 0 — across ring sizes and shard sizes.
func TestAllGatherIntoMatchesAllGather(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for _, rows := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("ranks=%d/rows=%d", n, rows), func(t *testing.T) {
				const width = 3
				shard := func(r int) *tensor.Tensor {
					s := tensor.New(rows, width)
					for i := 0; i < s.Size(); i++ {
						s.Data()[i] = float64(r+1)*1000 + float64(i)
					}
					return s
				}
				want := tensor.New(n*rows, width)
				for r := 0; r < n; r++ {
					copy(want.Data()[r*rows*width:], shard(r).Data())
				}
				got := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
					dst := tensor.New(n*rows, width)
					return dst, c.AllGatherInto(dst, shard(c.Rank()))
				})
				for r := range got {
					if !tensor.AllClose(got[r], want, 0, 0) {
						t.Fatalf("rank %d: AllGatherInto %v, want %v", r, got[r], want)
					}
				}
			})
		}
	}
}

// TestAllGatherIntoLeavesShardOwned verifies the no-relay contract: the
// caller's shard is only read, never forwarded, so mutating it immediately
// after the call cannot corrupt any other rank's result.
func TestAllGatherIntoLeavesShardOwned(t *testing.T) {
	const n, rows, width = 4, 2, 3
	outs := runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
		shard := tensor.New(rows, width)
		for i := range shard.Data() {
			shard.Data()[i] = float64(c.Rank() + 1)
		}
		dst := tensor.New(n*rows, width)
		if err := c.AllGatherInto(dst, shard); err != nil {
			return nil, err
		}
		for i := range shard.Data() {
			shard.Data()[i] = -999 // would poison peers if the shard were relayed
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		return dst, nil
	})
	for r, out := range outs {
		for owner := 0; owner < n; owner++ {
			for i := 0; i < rows*width; i++ {
				if got := out.Data()[owner*rows*width+i]; got != float64(owner+1) {
					t.Fatalf("rank %d block %d elem %d = %v, want %v", r, owner, i, got, float64(owner+1))
				}
			}
		}
	}
}

// TestIntoCollectivesRejectBorrowedDst pins the ownership guard: a borrowed
// batch-row view is caller-owned storage, so the in-place gather must refuse
// to write through it.
func TestIntoCollectivesRejectBorrowedDst(t *testing.T) {
	const n = 2
	backing := tensor.New(4, 3)
	runGroup(t, n, func(c *Communicator) (*tensor.Tensor, error) {
		view := tensor.ViewRange0(backing, 0, 2)
		shard := tensor.New(1, 3)
		if err := c.AllGatherInto(view, shard); err == nil {
			return nil, fmt.Errorf("AllGatherInto accepted a borrowed destination")
		}
		// Tag windows advance on every rank in lockstep even on the error
		// path, so the group stays usable; nothing further to send.
		return nil, nil
	})
}

// intoHarness pre-spawns one goroutine per rank running one AllGatherInto
// per kick, so steady-state allocation measurement adds no goroutine or
// closure allocations of its own.
type intoHarness struct {
	n    int
	kick []chan struct{}
	done chan error
	stop func()
}

func newIntoHarness(tb testing.TB, n, rows, width int) *intoHarness {
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
	h := &intoHarness{n: n, kick: make([]chan struct{}, n), done: make(chan error, n)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < n; r++ {
		h.kick[r] = make(chan struct{})
		comm, err := g.Comm(r)
		if err != nil {
			tb.Fatal(err)
		}
		shard := tensor.GetScratchShaped(rows, width)
		dst := tensor.GetScratchShaped(n*rows, width)
		wg.Add(1)
		go func(r int, comm *Communicator) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-h.kick[r]:
				}
				h.done <- comm.AllGatherInto(dst, shard)
			}
		}(r, comm)
	}
	h.stop = func() { close(stop); wg.Wait() }
	return h
}

func (h *intoHarness) round() error {
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

// TestIntoCollectivesZeroAllocSteadyState extends the allocation gate to the
// in-place gather: once mailboxes and chunk pools are warm, a round of
// AllGatherInto must not allocate.
func TestIntoCollectivesZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is only meaningful without -race")
	}
	const n, rows, width = 4, 16, 64
	h := newIntoHarness(t, n, rows, width)
	defer h.stop()
	// Each round issues one operation, so opReuseWindows rounds walk the
	// whole reuse cycle and warm every persistent mailbox the steady state
	// touches; +2 rounds of slack also fill the chunk pools.
	warmRounds := opReuseWindows + 2
	for i := 0; i < warmRounds; i++ {
		if err := h.round(); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	allocs := testing.AllocsPerRun(50, func() {
		if err := h.round(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state AllGatherInto allocates %.2f objects per round, want 0", allocs)
	}
}

// TestNewGroupRejectsOversizedGroups is the regression test for the tag
// window cap: a group whose rank count the GroupTagWindow cannot address must
// fail loudly at construction instead of silently wrapping operation tag
// windows into collisions. The 1<<12 window pins the cap at 1023 ranks —
// wide enough for external-transport process groups far beyond the 63-rank
// ceiling the original 1<<8 window imposed.
func TestNewGroupRejectsOversizedGroups(t *testing.T) {
	tr := runtime.NewChanTransport()
	maxRanks := (GroupTagWindow/2 - 2) / 2 // every op window (2n+2 tags) must fit twice
	if maxRanks != 1023 {
		t.Fatalf("tag-window rank cap = %d, want 1023 (GroupTagWindow = 1<<12)", maxRanks)
	}
	mk := func(n int) []int {
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		return ranks
	}
	// Groups beyond the old 63-rank ceiling must now construct.
	for _, n := range []int{64, 257, maxRanks} {
		if _, err := NewGroup(tr, mk(n), 0); err != nil {
			t.Fatalf("NewGroup(%d ranks): %v, want success under the %d-rank cap", n, err, maxRanks)
		}
	}
	if _, err := NewGroup(tr, mk(maxRanks+1), 0); err == nil {
		t.Fatalf("NewGroup(%d ranks) succeeded; tags would alias within the %d-tag group window", maxRanks+1, GroupTagWindow)
	}
}
