package tensor

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool accounting: hits reuse pooled storage, misses allocate (a cold bucket
// or post-GC eviction), oversize requests bypass the pool entirely, and
// recycle_drop counts returns the pool refuses (borrowed views, sub-minimum
// or oversize buffers). A rising miss rate at steady state means GC is
// evicting buckets faster than the step reuses them.
var (
	cPoolHit         = obs.Counter("pool/hit")
	cPoolMiss        = obs.Counter("pool/miss")
	cPoolOversize    = obs.Counter("pool/oversize")
	cPoolRecycle     = obs.Counter("pool/recycle")
	cPoolRecycleDrop = obs.Counter("pool/recycle_drop")
)

// Scratch-tensor pool. Hot paths (the IR interpreter's intermediates, the
// collective engine's ring chunks) churn through short-lived tensors of a
// small set of sizes; recycling them through size-bucketed sync.Pools makes
// those paths allocation-free in steady state.
//
// Ownership rules:
//   - GetScratch hands out a tensor with unspecified contents that the caller
//     owns exclusively and may mutate (unlike ordinary tensors, which are
//     immutable by convention).
//   - Recycle returns a tensor to the pool. The caller must hold the only
//     reference: recycling a tensor that is still aliased (a Reshape view, a
//     stored buffer, an in-flight message) corrupts later computations.
//   - A scratch tensor handed to another owner (stored, returned to a caller)
//     transfers ownership: the new owner recycles it, or simply drops it to
//     the garbage collector. Sending one over a transport does not: the
//     transport captures a copy, and the sender still owns what it sent.

const (
	// minPoolBits is the smallest bucket (a single element). Scalars are the
	// hottest scratch size of all — every microbatch loss is one — so the
	// pool tiers go all the way down: a per-step churn of ~100 scalar tensors
	// recycles instead of allocating.
	minPoolBits = 0
	// maxPoolBits is the largest bucket (2^24 elements, 128 MiB): beyond it
	// tensors are allocated directly.
	maxPoolBits = 24
)

var scratchPools [maxPoolBits + 1]sync.Pool

// minSharedBits is the smallest bucket (2^17 elements, 1 MiB) kept in a
// shared list instead of a sync.Pool. A sync.Pool keeps the last buffer a P
// put in a slot that only that P's Gets look in, so with goroutines on two
// Ps a Get can miss and allocate megabytes while a buffer of its size lies
// idle: a gradient the driver recycled, say, and the actor that needs one a
// step later. A list every P sees costs a lock a cycle: a Get and a Recycle
// take 2-3x a sync.Pool's time, 5x with two Ps at it. The benchmark's
// workloads recycle 52-499 buffers a step below 1 MiB and 0-12 at or above
// it (the dp2x2 gradients), and pp4-small, all of whose traffic is below,
// lost steps with a list in every bucket.
const minSharedBits = 17

// sharedFree holds each large bucket's recycled buffers, the most recent
// last. Like a sync.Pool's, they live through one collection and go at the
// next: after each collection bufs becomes victim and the victims before it
// are dropped (ageShared), and a Get takes from bufs, then from victim.
var sharedFree [maxPoolBits + 1]struct {
	mu           sync.Mutex
	bufs, victim []*Tensor
}

// getShared pops bucket b's most recently recycled buffer, or nil.
func getShared(b int) *Tensor {
	l := &sharedFree[b]
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range [...]*[]*Tensor{&l.bufs, &l.victim} {
		if n := len(*s); n > 0 {
			t := (*s)[n-1]
			(*s)[n-1] = nil
			*s = (*s)[:n-1]
			return t
		}
	}
	return nil
}

// putShared pushes t onto bucket b's list.
func putShared(b int, t *Tensor) {
	l := &sharedFree[b]
	l.mu.Lock()
	l.bufs = append(l.bufs, t)
	l.mu.Unlock()
}

func init() { ageAfterCollection() }

// ageAfterCollection has ageShared run once the next collection is over: a
// cleanup on an object nothing references runs after the collection that
// frees it, and arms the next. The object holds a pointer so that it gets
// an allocation of its own, never shared with a live one.
func ageAfterCollection() {
	runtime.AddCleanup(new(*int), func(struct{}) {
		ageShared()
		ageAfterCollection()
	}, struct{}{})
}

// ageShared makes every large bucket's buffers its victims and leaves the
// victims before them to the collector.
func ageShared() {
	for b := minSharedBits; b <= maxPoolBits; b++ {
		l := &sharedFree[b]
		l.mu.Lock()
		clear(l.victim)
		l.bufs, l.victim = l.victim[:0], l.bufs
		l.mu.Unlock()
	}
}

// bucketFor returns the pool index whose buffers can hold n elements.
func bucketFor(n int) int {
	if n <= 1<<minPoolBits {
		return minPoolBits
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}

// GetScratch returns a flat scratch tensor of shape [n] backed by pooled
// storage. Contents are unspecified; the caller owns the tensor and may
// mutate it until ownership is transferred (see the package ownership rules).
func GetScratch(n int) *Tensor {
	t := getScratchCap(n)
	t.shape = append(t.shape[:0], n)
	return t
}

// GetScratchShaped is GetScratch for an arbitrary shape.
func GetScratchShaped(shape ...int) *Tensor {
	t := getScratchCap(NumElements(shape))
	t.shape = append(t.shape[:0], shape...)
	return t
}

// CloneScratch returns a copy of t, shape and elements, in pooled storage the
// caller owns. A pool hit allocates nothing: the shape is written into the
// pooled tensor's own shape slice, which grows only for a rank it has not
// held before.
func CloneScratch(t *Tensor) *Tensor {
	c := getScratchCap(len(t.data))
	c.shape = append(c.shape[:0], t.shape...)
	copy(c.data, t.data)
	return c
}

// GetScratchZero is GetScratchShaped with the storage cleared.
func GetScratchZero(shape ...int) *Tensor {
	t := GetScratchShaped(shape...)
	clear(t.data)
	return t
}

func getScratchCap(n int) *Tensor {
	b := bucketFor(n)
	if b > maxPoolBits {
		obs.Add(cPoolOversize, 1)
		return &Tensor{data: make([]float64, n)}
	}
	var t *Tensor
	if b >= minSharedBits {
		t = getShared(b)
	} else if v := scratchPools[b].Get(); v != nil {
		t = v.(*Tensor)
	}
	if t == nil {
		obs.Add(cPoolMiss, 1)
		return &Tensor{data: make([]float64, n, 1<<b)}
	}
	obs.Add(cPoolHit, 1)
	t.data = t.data[:cap(t.data)][:n]
	return t
}

// recycleHook, when set, is shown every tensor handed to Recycle before the
// pool takes it. It is a seam for ownership checkers in tests
// (transporttest.LendChecker fails a test that recycles storage still on loan
// to a transport); nothing outside tests sets it.
var recycleHook atomic.Pointer[func(*Tensor)]

// SetRecycleHook installs f as the recycle hook (nil removes it) and returns
// the hook it replaced, for the caller to put back.
func SetRecycleHook(f func(*Tensor)) (prev func(*Tensor)) {
	var old *func(*Tensor)
	if f == nil {
		old = recycleHook.Swap(nil)
	} else {
		old = recycleHook.Swap(&f)
	}
	if old == nil {
		return nil
	}
	return *old
}

// Recycle returns t's storage to the scratch pool. The caller must own the
// only reference to t and to its backing array (no live views). Any tensor
// may be recycled, not just ones from GetScratch; undersized or oversized
// storage is simply dropped.
func Recycle(t *Tensor) {
	if hook := recycleHook.Load(); hook != nil && t != nil {
		(*hook)(t)
	}
	if t == nil || t.borrowed {
		// Borrowed views never own their storage; pooling it would hand the
		// owner's live data out as scratch. Silently dropping the view is the
		// correct recycle for it.
		obs.Add(cPoolRecycleDrop, 1)
		return
	}
	c := cap(t.data)
	if c < 1<<minPoolBits {
		obs.Add(cPoolRecycleDrop, 1)
		return
	}
	// Floor bucket: the buffer can serve any request up to its capacity, and
	// every request routed to bucket b needs at most 1<<b <= c elements.
	b := bits.Len(uint(c)) - 1
	if b > maxPoolBits {
		obs.Add(cPoolRecycleDrop, 1)
		return
	}
	obs.Add(cPoolRecycle, 1)
	if b >= minSharedBits {
		putShared(b, t)
		return
	}
	scratchPools[b].Put(t)
}
