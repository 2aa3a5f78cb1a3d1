// Package runtime implements JaxPP's single-controller MPMD runtime (§4):
// long-lived actors, one device each, own an object store of device buffers
// and execute one fused instruction program per training step, communicating
// exclusively through point-to-point sends and receives on a
// transport.Transport. A send is the transport's Send and nothing else: that
// it never waits for the receiver (§4.2) is the transport's property — a
// capacity-1 mailbox here, a per-peer sender worker in package dist — so the
// runtime keeps no queue, no goroutine between steps, and no record of
// transfers in flight. Every transport's Send captures what it is handed, so
// a sent buffer stays the sender's store's, and the liveness delete after its
// last use (§4.3) recycles it into the scratch pool the next microbatch draws
// from: a steady-state step allocates no tensor storage. Actors run as
// goroutines over an in-process transport or across OS processes as peers on
// Unix-domain sockets (package dist, which this package does not import),
// playing the role Ray workers + NCCL play for JaxPP.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// slot is one dense store entry. BufIDs are allocated compactly per program
// (taskgraph.Program.NumBufs), so a slice of slots indexed directly by BufID
// replaces the maps the store used to keep — no hashing, no bucket churn.
type slot struct {
	t *tensor.Tensor
}

// Store is an actor's on-device object store (§4.1). Only the actor's own
// goroutine touches a slot during a step, and a transport has captured a sent
// buffer by the time Send returns, so a deletion never has a transfer to wait
// for (§4.3) and the buffer it reclaims is the store's alone: it goes back to
// the scratch pool for the next microbatch. mu orders placement, result
// fetches and Stats against the step.
//
// A slot owns its tensor — a segment output, a received payload, an
// accumulator — except for two kinds Executable.place puts there:
// parameters, which liveness never deletes and Put replaces each step, and
// borrowed batch views, which reclaim drops without pooling. Results leave by
// Take.
type Store struct {
	mu    sync.Mutex
	slots []slot

	liveBufs  int
	liveBytes int64
	peakBytes int64
	peakBufs  int
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
	if t := s.lookup(id); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("runtime: buffer %d not in store", id)
}

// lookup returns the buffer, or nil if the slot is empty, with no error to
// allocate: an actor asks for an accumulator that is empty at every step's
// first microbatch.
func (s *Store) lookup(id taskgraph.BufID) *tensor.Tensor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) {
		return nil
	}
	return s.slots[id].t
}

// Take removes the buffer from the store and transfers ownership of it to the
// caller: the runtime holds no further reference, so nothing the next step
// does (deletes, accumulations, in-place collectives) can touch the returned
// tensor.
func (s *Store) Take(id taskgraph.BufID) (*tensor.Tensor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.slots) || s.slots[id].t == nil {
		return nil, fmt.Errorf("runtime: buffer %d not in store", id)
	}
	sl := &s.slots[id]
	t := sl.t
	sl.t = nil
	s.liveBufs--
	s.liveBytes -= bytesOf(t)
	return t, nil
}

// Delete reclaims the buffer (see reclaim): OpDelete at a buffer's last use,
// and Executable.place at the start of a step for results nobody took.
// Deleting an absent buffer is a no-op.
func (s *Store) Delete(id taskgraph.BufID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) < len(s.slots) {
		s.reclaim(&s.slots[id])
	}
}

// Accumulate adds buffer src into buffer dst (OpAccum), in place when the
// store owns the accumulator: a borrowed view (a zero-copy batch row) is
// caller-owned storage and falls back to an out-of-place add. An empty dst is
// initialized from src, which is what makes every later accumulation
// store-owned. last says this is src's last use: if the store holds src
// outright — not a borrowed view — src's tensor itself becomes the
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
	case acc != nil && !acc.Borrowed() && tensor.SameShape(acc, t):
		tensor.AddInto(acc, acc, t)
		return nil
	case acc != nil:
		to.t = tensor.Add(acc, t)
		s.liveBytes -= bytesOf(acc)
	case last && !t.Borrowed():
		// One slot empties as the other fills: occupancy does not change.
		to.t, from.t = t, nil
		return nil
	default:
		to.t = tensor.CloneScratch(t)
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

// reclaim empties the slot and recycles its tensor into the scratch pool; a
// borrowed view is only dropped, its storage being the caller's. Callers hold
// s.mu.
func (s *Store) reclaim(sl *slot) {
	if sl.t == nil {
		return
	}
	s.liveBytes -= bytesOf(sl.t)
	s.liveBufs--
	if !sl.t.Borrowed() {
		tensor.Recycle(sl.t)
	}
	sl.t = nil
}

// Stats reports live/peak occupancy.
type StoreStats struct {
	LiveBufs  int
	LiveBytes int64
	PeakBufs  int
	PeakBytes int64
}

// Stats returns a snapshot of occupancy counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		LiveBufs:  s.liveBufs,
		LiveBytes: s.liveBytes,
		PeakBufs:  s.peakBufs,
		PeakBytes: s.peakBytes,
	}
}
