// Package runtime implements JaxPP's single-controller MPMD runtime (§4):
// long-lived SPMD actors each own an object store of device buffers and
// execute one fused instruction program per training step, communicating
// exclusively through asynchronous point-to-point sends and receives. Actors
// run as goroutines over an in-process transport or as TCP peers across OS
// processes (package dist), playing the role Ray workers + NCCL play for
// JaxPP.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// slot is one dense store entry. BufIDs are allocated compactly per program
// (taskgraph.Program.NumBufs), so a slice of slots indexed directly by BufID
// replaces the three maps the store used to keep — no hashing, no bucket
// churn, and the per-buffer bookkeeping bits live next to the buffer pointer.
type slot struct {
	t        *tensor.Tensor
	inflight int32 // sends in progress reading this buffer
	pending  bool  // deletion deferred until inflight drains (§4.3)
}

// Store is an actor's on-device object store (§4.1). Deletions of buffers
// with in-flight sends are deferred and performed when the send completes
// (§4.3).
type Store struct {
	mu    sync.Mutex
	slots []slot

	liveBufs     int
	pendingCount int
	liveBytes    int64
	peakBytes    int64
	peakBufs     int
	deferred     int // deletions that had to wait on a send at least once
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{}
}

// Reserve grows the dense slot table to hold BufIDs [0, n) without further
// allocation. The driver calls it at program-load time with the program's
// NumBufs; stores still grow on demand if an ID beyond the reservation
// appears.
func (s *Store) Reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grow(taskgraph.BufID(n - 1))
}

// grow ensures slots covers id. Callers hold s.mu.
func (s *Store) grow(id taskgraph.BufID) {
	if int(id) < len(s.slots) {
		return
	}
	n := len(s.slots)*2 + 1
	if n <= int(id) {
		n = int(id) + 1
	}
	grown := make([]slot, n)
	copy(grown, s.slots)
	s.slots = grown
}

// slotFor returns the slot for id, growing the table as needed. Callers hold
// s.mu.
func (s *Store) slotFor(id taskgraph.BufID) *slot {
	s.grow(id)
	return &s.slots[id]
}

func bytesOf(t *tensor.Tensor) int64 { return int64(t.Size()) * 8 }

// Put stores a buffer, replacing any previous value.
func (s *Store) Put(id taskgraph.BufID, t *tensor.Tensor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.slotFor(id)
	if sl.t != nil {
		s.liveBytes -= bytesOf(sl.t)
	} else {
		s.liveBufs++
	}
	sl.t = t
	s.liveBytes += bytesOf(t)
	if s.liveBytes > s.peakBytes {
		s.peakBytes = s.liveBytes
	}
	if s.liveBufs > s.peakBufs {
		s.peakBufs = s.liveBufs
	}
}

// Get returns the buffer or an error if absent (deleted or never produced).
func (s *Store) Get(id taskgraph.BufID) (*tensor.Tensor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) || s.slots[id].t == nil {
		return nil, fmt.Errorf("runtime: buffer %d not in store", id)
	}
	return s.slots[id].t, nil
}

// Take removes the buffer from the store and transfers ownership of it to the
// caller: the runtime holds no further reference, so nothing the next step
// does (deletes, accumulations, in-place collectives) can touch the returned
// tensor. A buffer with sends still in flight is cloned instead — the
// transport may still be reading the original — and the original stays in the
// store under its deferred-deletion discipline.
func (s *Store) Take(id taskgraph.BufID) (*tensor.Tensor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) || s.slots[id].t == nil {
		return nil, fmt.Errorf("runtime: buffer %d not in store", id)
	}
	sl := &s.slots[id]
	if sl.inflight > 0 {
		return sl.t.Clone(), nil
	}
	t := sl.t
	sl.t = nil
	s.liveBufs--
	s.liveBytes -= bytesOf(t)
	return t, nil
}

// SendStarted marks one in-flight send of the buffer.
func (s *Store) SendStarted(id taskgraph.BufID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slotFor(id).inflight++
}

// SendDone marks completion of one send; if a deletion was pending and no
// sends remain, the buffer is reclaimed now. An unmatched SendDone panics:
// letting the count go negative would silently corrupt the deferred-deletion
// accounting (a later SendStarted/Delete pair would reclaim the buffer while
// the transport still reads it).
func (s *Store) SendDone(id taskgraph.BufID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) || s.slots[id].inflight <= 0 {
		panic(fmt.Sprintf("runtime: SendDone(%d) without matching SendStarted", id))
	}
	sl := &s.slots[id]
	sl.inflight--
	if sl.inflight == 0 && sl.pending {
		sl.pending = false
		s.pendingCount--
		s.reclaim(sl)
	}
}

// Delete reclaims the buffer, deferring while sends are in flight (§4.3).
func (s *Store) Delete(id taskgraph.BufID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) {
		return
	}
	sl := &s.slots[id]
	if sl.inflight > 0 {
		if !sl.pending {
			sl.pending = true
			s.pendingCount++
		}
		s.deferred++
		return
	}
	s.reclaim(sl)
}

// Accumulate adds buffer src into buffer dst (OpAccum), in place when the
// store owns the accumulator exclusively: a buffer with in-flight sends may be
// concurrently read by the transport, and a borrowed view (a zero-copy batch
// row) is caller-owned storage — both fall back to an out-of-place add (the
// same reason deletions defer, §4.3). An empty dst is initialized from src,
// which is what makes every later accumulation exclusively store-owned. last
// says this is src's last use: if the store holds src outright — no send
// reading it, not a borrowed view — src's tensor itself becomes the
// accumulator and the OpDelete of src that follows finds an empty slot.
// Otherwise dst gets a copy, on storage from the scratch pool, where the
// driver's Recycle of last step's accumulator put it.
func (s *Store) Accumulate(dst, src taskgraph.BufID, last bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(src) >= len(s.slots) || s.slots[src].t == nil {
		return fmt.Errorf("runtime: buffer %d not in store", src)
	}
	to := s.slotFor(dst) // may grow the table: take src's slot after it
	from := &s.slots[src]
	acc, t := to.t, from.t
	switch {
	case acc != nil && to.inflight == 0 && !acc.Borrowed() && tensor.SameShape(acc, t):
		tensor.AddInto(acc, acc, t)
		return nil
	case acc != nil:
		to.t = tensor.Add(acc, t)
		s.liveBytes -= bytesOf(acc)
	case last && from.inflight == 0 && !t.Borrowed():
		// One slot empties as the other fills: occupancy does not change.
		to.t, from.t = t, nil
		return nil
	default:
		to.t = tensor.GetScratchShaped(t.Shape()...)
		to.t.CopyFrom(t.Data())
		s.liveBufs++
	}
	s.liveBytes += bytesOf(to.t)
	if s.liveBytes > s.peakBytes {
		s.peakBytes = s.liveBytes
	}
	if s.liveBufs > s.peakBufs {
		s.peakBufs = s.liveBufs
	}
	return nil
}

// reclaim drops the slot's buffer. Callers hold s.mu.
func (s *Store) reclaim(sl *slot) {
	if sl.t != nil {
		s.liveBytes -= bytesOf(sl.t)
		s.liveBufs--
		sl.t = nil
	}
}

// Stats reports live/peak occupancy.
type StoreStats struct {
	LiveBufs         int
	LiveBytes        int64
	PeakBufs         int
	PeakBytes        int64
	DeferredDeletes  int
	PendingDeletions int
}

// Stats returns a snapshot of occupancy counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		LiveBufs:         s.liveBufs,
		LiveBytes:        s.liveBytes,
		PeakBufs:         s.peakBufs,
		PeakBytes:        s.peakBytes,
		DeferredDeletes:  s.deferred,
		PendingDeletions: s.pendingCount,
	}
}

// ResetPeaks clears peak counters (e.g. between steps).
func (s *Store) ResetPeaks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peakBytes = s.liveBytes
	s.peakBufs = s.liveBufs
}
