package collective

import (
	"sync"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// sentChunk is one Send or SendLent a recordingTransport saw: who sent it
// under which tag, a copy of the payload, and the residual handed with it.
type sentChunk struct {
	from, tag int
	data      []float64
	res       []float64
}

// recordingTransport records every payload sent through it, and the residual
// slice that rode with it, before passing the call on.
type recordingTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent []sentChunk
}

func (r *recordingTransport) record(from, tag int, data, res []float64) {
	r.mu.Lock()
	r.sent = append(r.sent, sentChunk{from, tag, append([]float64(nil), data...), res})
	r.mu.Unlock()
}

func (r *recordingTransport) Send(from, to, tag int, t *tensor.Tensor) {
	r.record(from, tag, t.Data(), nil)
	r.Transport.Send(from, to, tag, t)
}

func (r *recordingTransport) SendLent(from, to, tag int, payload, residual []float64) {
	r.record(from, tag, payload, residual)
	r.Transport.SendLent(from, to, tag, payload, residual)
}

// TestResidualRidesHopZero holds the armed reduce half to where error
// feedback belongs: in every bucket that sends, exactly the hop-0 send — the
// balanced chunk `rank` of the bucket, the one segment that leaves the rank
// as its own values — carries a residual, of that chunk's length, and it is
// the communicator's own (Residuals), the same storage step after step; every
// later hop, and every send of an unarmed communicator, carries none. Over
// the ranks the hop-0 chunks partition the list, as the OwnedRanges do. The
// list has sizes no group size divides, a fused bucket with an empty tensor
// inside, a tensor larger than the cap, a one-element bucket (its chunk is
// empty on most ranks) and an empty bucket.
func TestResidualRidesHopZero(t *testing.T) {
	const bucketCap = 100 * 8
	sizes := []int{37, 0, 41, 250, 0, 260, 1, 300, 13, 90, 0}
	if got := NumBuckets(sizes, bucketCap); got != 8 {
		t.Fatalf("%d buckets, want 8: [37 0 41] [250] [0] [260] [1] [300] [13] [90 0]", got)
	}
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	for _, n := range []int{2, 3, 5} {
		for _, armed := range []bool{false, true} {
			// Element e of rank r's list holds r·total + e: a payload names the
			// rank and the range it was cut from.
			rec := &recordingTransport{Transport: runtime.NewChanTransport()}
			var stride, tagBase int
			res := make([][][]float64, n)
			runGroupOn(t, rec, n, func(c *Communicator) (*tensor.Tensor, error) {
				if c.rank == 0 {
					stride, tagBase = c.opTagStride(), c.g.tagBase
				}
				if armed {
					c.ArmErrorFeedback()
				}
				for step := 0; step < 2; step++ {
					ts := make([]*tensor.Tensor, len(sizes))
					e := c.rank * total
					for i, sz := range sizes {
						ts[i] = tensor.New(sz)
						for j := range ts[i].Data() {
							ts[i].Data()[j] = float64(e)
							e++
						}
					}
					if err := c.ReduceBucketsInPlace(ts, OpSum, bucketCap); err != nil {
						return nil, err
					}
				}
				res[c.rank] = c.Residuals()
				return nil, nil
			})

			type hop0 struct {
				r   Range
				res []float64
			}
			sentBy := make([][]hop0, n) // hop-0 sends in tag (= bucket) order, both steps
			for _, s := range rec.sent {
				if (s.tag-tagBase)%stride != 0 {
					if s.res != nil {
						t.Fatalf("n %d rank %d tag %d: a later hop carries a residual", n, s.from, s.tag)
					}
					continue
				}
				if !armed {
					if s.res != nil {
						t.Fatalf("n %d rank %d tag %d: an unarmed hop 0 carries a residual", n, s.from, s.tag)
					}
					continue
				}
				if s.res == nil || len(s.res) != len(s.data) {
					t.Fatalf("n %d rank %d tag %d: hop 0 of %d elements carries residual %v", n, s.from, s.tag, len(s.data), s.res)
				}
				lo := 0
				if len(s.data) > 0 {
					lo = int(s.data[0]) - s.from*total
				}
				for i, v := range s.data {
					if int(v) != s.from*total+lo+i {
						t.Fatalf("n %d rank %d tag %d: hop-0 payload is not one range of the rank's own values", n, s.from, s.tag)
					}
				}
				sentBy[s.from] = append(sentBy[s.from], hop0{Range{lo, lo + len(s.data)}, s.res})
			}
			if !armed {
				for r := range res {
					if res[r] != nil {
						t.Fatalf("n %d rank %d: an unarmed communicator keeps residuals %v", n, r, res[r])
					}
				}
				continue
			}

			sentOnce, ownedOnce := make([]int, total), make([]int, total)
			for r := 0; r < n; r++ {
				// The buckets that send at all: those with an element.
				var wantBucket []int
				for b, bb := range bucketBoundaries(sizes, bucketCap) {
					elems := 0
					for _, sz := range sizes[bb[0]:bb[1]] {
						elems += sz
					}
					if elems > 0 {
						wantBucket = append(wantBucket, b)
					}
				}
				if got := sentBy[r]; len(got) != 2*len(wantBucket) {
					t.Fatalf("n %d rank %d: %d hop-0 sends over two steps, want two per sending bucket (%d)", n, r, len(got), len(wantBucket))
				}
				half := len(sentBy[r]) / 2
				for i, bi := range wantBucket {
					first, second := sentBy[r][i], sentBy[r][half+i]
					w := chunkOf(sizes, bucketCap, n, r, bi)
					if first.r.Hi-first.r.Lo != w.Hi-w.Lo || (w.Lo < w.Hi && first.r != w) || second.r != first.r {
						t.Fatalf("n %d rank %d bucket %d: hop 0 sent %v then %v, want chunk %v", n, r, bi, first.r, second.r, w)
					}
					mine := res[r][bi]
					if len(mine) != w.Hi-w.Lo || len(first.res) != len(mine) ||
						(len(mine) > 0 && (&first.res[0] != &mine[0] || &second.res[0] != &mine[0])) {
						t.Fatalf("n %d rank %d bucket %d: hop 0 carried residuals %p / %p, the communicator keeps %p (%d elements)", n, r, bi, first.res, second.res, mine, len(mine))
					}
					for e := w.Lo; e < w.Hi; e++ {
						sentOnce[e]++
					}
				}
				for _, o := range OwnedRanges(sizes, bucketCap, n, r) {
					for e := o.Lo; e < o.Hi; e++ {
						ownedOnce[e]++
					}
				}
			}
			for e := range sentOnce {
				if sentOnce[e] != 1 || ownedOnce[e] != 1 {
					t.Fatalf("n %d elem %d: sent first by %d ranks, owned by %d, want one each", n, e, sentOnce[e], ownedOnce[e])
				}
			}
		}
	}
}

// chunkOf is balanced chunk `chunk` of fusion bucket b, as a range of the
// concatenated list.
func chunkOf(sizes []int, bucketBytes, n, chunk, b int) Range {
	var out Range
	i := 0
	bucketChunks(sizes, bucketBytes, n, chunk, func(lo, hi int) {
		if i == b {
			out = Range{lo, hi}
		}
		i++
	})
	return out
}
