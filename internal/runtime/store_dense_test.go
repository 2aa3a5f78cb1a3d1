package runtime

import (
	"math/rand"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// modelStore is a reference implementation of the store contract with the
// original map layout, used to property-test the dense slice store: any
// divergence in Get results, Take results, or Stats under a random operation
// sequence is a regression in the dense rewrite.
type modelStore struct {
	bufs map[taskgraph.BufID]*tensor.Tensor

	liveBytes int64
	peakBytes int64
	peakBufs  int
}

func newModelStore() *modelStore {
	return &modelStore{bufs: map[taskgraph.BufID]*tensor.Tensor{}}
}

func (m *modelStore) bump() {
	if m.liveBytes > m.peakBytes {
		m.peakBytes = m.liveBytes
	}
	if len(m.bufs) > m.peakBufs {
		m.peakBufs = len(m.bufs)
	}
}

func (m *modelStore) put(id taskgraph.BufID, t *tensor.Tensor) {
	if old, ok := m.bufs[id]; ok {
		m.liveBytes -= bytesOf(old)
	}
	m.bufs[id] = t
	m.liveBytes += bytesOf(t)
	m.bump()
}

func (m *modelStore) del(id taskgraph.BufID) {
	if t, ok := m.bufs[id]; ok {
		m.liveBytes -= bytesOf(t)
		delete(m.bufs, id)
	}
}

// accumulate models Accumulate: a last use moves the buffer into an empty
// destination, anything else adds into the destination or initializes it to a
// copy.
func (m *modelStore) accumulate(dst, src taskgraph.BufID, last bool) bool {
	t, ok := m.bufs[src]
	if !ok {
		return false
	}
	acc, has := m.bufs[dst]
	var out *tensor.Tensor
	switch {
	case has:
		out = tensor.Add(acc, t)
		m.liveBytes -= bytesOf(acc)
	case last:
		delete(m.bufs, src)
		m.bufs[dst] = t
		return true
	default:
		out = t.Clone()
	}
	m.bufs[dst] = out
	m.liveBytes += bytesOf(out)
	m.bump()
	return true
}

func (m *modelStore) take(id taskgraph.BufID) (*tensor.Tensor, bool) {
	t, ok := m.bufs[id]
	if !ok {
		return nil, false
	}
	m.liveBytes -= bytesOf(t)
	delete(m.bufs, id)
	return t, true
}

func (m *modelStore) stats() StoreStats {
	return StoreStats{
		LiveBufs:  len(m.bufs),
		LiveBytes: m.liveBytes,
		PeakBufs:  m.peakBufs,
		PeakBytes: m.peakBytes,
	}
}

// TestDenseStoreMatchesMapSemantics drives the dense store and the map model
// through the same random operation sequence and demands identical observable
// behaviour after every operation.
func TestDenseStoreMatchesMapSemantics(t *testing.T) {
	const ids = 12
	const ops = 20000
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	m := newModelStore()

	// Buffer shapes are fixed per ID, as the task-graph compiler guarantees:
	// accumulation only ever meets matching shapes.
	val := func(id taskgraph.BufID) *tensor.Tensor {
		t := tensor.New(1 + int(id)%3)
		for i := range t.Data() {
			t.Data()[i] = rng.Float64()
		}
		return t
	}

	for op := 0; op < ops; op++ {
		id := taskgraph.BufID(rng.Intn(ids))
		switch rng.Intn(5) {
		case 0: // Put
			v := val(id)
			s.Put(id, v)
			m.put(id, v.Clone())
		case 1: // Delete
			s.Delete(id)
			m.del(id)
		case 2: // Accumulate a buffer of the same shape, at its last use or not
			// The in-place/out-of-place/move split is an implementation
			// detail; values and occupancy must match either way.
			src, last := (id+3)%ids, rng.Intn(2) == 0
			err := s.Accumulate(id, src, last)
			if ok := m.accumulate(id, src, last); ok != (err == nil) {
				t.Fatalf("op %d: Accumulate(%d, %d) err=%v, model present=%v", op, id, src, err, ok)
			}
		case 3: // Get
			got, err := s.Get(id)
			want, ok := m.bufs[id]
			if ok != (err == nil) {
				t.Fatalf("op %d: Get(%d) err=%v, model present=%v", op, id, err, ok)
			}
			if ok && !tensor.AllClose(got, want, 0, 0) {
				t.Fatalf("op %d: Get(%d) = %v, model %v", op, id, got, want)
			}
		case 4: // Take
			got, err := s.Take(id)
			want, ok := m.take(id)
			if ok != (err == nil) {
				t.Fatalf("op %d: Take(%d) err=%v, model present=%v", op, id, err, ok)
			}
			if ok && !tensor.AllClose(got, want, 0, 0) {
				t.Fatalf("op %d: Take(%d) = %v, model %v", op, id, got, want)
			}
		}
		gs, ms := s.Stats(), m.stats()
		if gs != ms {
			t.Fatalf("op %d: stats diverged: dense %+v, model %+v", op, gs, ms)
		}
	}
}

// TestAccumulateMovesLastUse pins when the first accumulation takes the
// source tensor itself: only at the source's last use, into an empty
// accumulator, with the source not a borrowed view. Every other case leaves the source where it was and the accumulator
// on storage of its own.
func TestAccumulateMovesLastUse(t *testing.T) {
	const acc, src = 0, 1
	vals := func() *tensor.Tensor { return tensor.MustFromSlice([]float64{1, 2, 3}, 3) }
	for _, c := range []struct {
		name  string
		prep  func(s *Store)
		last  bool
		moved bool
	}{
		{"last use", func(s *Store) { s.Put(src, vals()) }, true, true},
		{"not the last use", func(s *Store) { s.Put(src, vals()) }, false, false},
		{"borrowed view", func(s *Store) { s.Put(src, tensor.ViewRange0(vals(), 0, 3)) }, true, false},
		{"accumulator present", func(s *Store) { s.Put(src, vals()); s.Put(acc, vals()) }, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore()
			c.prep(s)
			before, _ := s.Get(src)
			had, _ := s.Get(acc)
			bufs := s.Stats().LiveBufs
			if err := s.Accumulate(acc, src, c.last); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(acc)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := s.Get(src)
			if c.moved {
				if got != before || after != nil {
					t.Fatalf("source was not moved into the empty accumulator")
				}
				if st := s.Stats(); st.LiveBufs != bufs || st.PeakBufs != bufs || st.PeakBytes != bytesOf(got) {
					t.Fatalf("a move changed occupancy: %+v", st)
				}
				s.Delete(src) // the OpDelete that follows finds an empty slot
				if st := s.Stats(); st.LiveBufs != 1 {
					t.Fatalf("deleting the moved-from slot reclaimed something: %+v", st)
				}
				return
			}
			if got == before || after != before {
				t.Fatalf("source must stay in place and unaliased")
			}
			want := []float64{1, 2, 3}
			if had != nil {
				want = []float64{2, 4, 6}
			}
			for i, w := range want {
				if got.Data()[i] != w || before.Data()[i] != float64(i+1) {
					t.Fatalf("accumulator %v, source %v", got.Data(), before.Data())
				}
			}
		})
	}
	if err := NewStore().Accumulate(acc, src, true); err == nil {
		t.Fatal("accumulating from a missing buffer must fail")
	}
}

// TestStoreTakeTransfersOwnership pins the fetch contract Executable.Step
// relies on: after Take, the buffer is gone from the store and later deletes
// or accumulations build fresh storage instead of touching the taken tensor.
func TestStoreTakeTransfersOwnership(t *testing.T) {
	s := NewStore()
	v := tensor.MustFromSlice([]float64{1, 2, 3}, 3)
	s.Put(0, v)
	got, err := s.Take(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("Take should return the stored tensor itself")
	}
	if _, err := s.Get(0); err == nil {
		t.Fatalf("buffer still present after Take")
	}
	s.Delete(0) // must be a no-op, not a panic
	s.Put(1, tensor.MustFromSlice([]float64{10, 10, 10}, 3))
	if err := s.Accumulate(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 1 {
		t.Fatalf("accumulate after Take mutated the taken tensor: %v", got)
	}
}
