package collective

import (
	"sync"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// sentChunk is one Send or SendLent a recordingTransport saw.
type sentChunk struct {
	from, tag int
	data      []float64
}

// recordingTransport copies every payload sent through it before passing the
// call on.
type recordingTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent []sentChunk
}

func (r *recordingTransport) record(from, tag int, data []float64) {
	r.mu.Lock()
	r.sent = append(r.sent, sentChunk{from, tag, append([]float64(nil), data...)})
	r.mu.Unlock()
}

func (r *recordingTransport) Send(from, to, tag int, t *tensor.Tensor) {
	r.record(from, tag, t.Data())
	r.Transport.Send(from, to, tag, t)
}

func (r *recordingTransport) SendLent(from, to, tag int, payload []float64) {
	r.record(from, tag, payload)
	r.Transport.SendLent(from, to, tag, payload)
}

// TestFirstSentRangesMatchRing holds FirstSentRanges to the ring it
// describes: at step 0 of every bucket of ReduceBucketsInPlace a rank sends
// exactly those ranges of its list, one frame each, and over the ranks they
// partition the list the way the OwnedRanges do. The list has sizes no group
// size divides, a fused bucket with an empty tensor inside, a tensor larger
// than the cap, a one-element bucket (its chunk is empty on most ranks) and
// an empty bucket.
func TestFirstSentRangesMatchRing(t *testing.T) {
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
		// Element e of rank r's list holds r·total + e: a payload names the
		// rank and the range it was cut from.
		rec := &recordingTransport{Transport: runtime.NewChanTransport()}
		var stride, tagBase int
		runGroupOn(t, rec, n, func(c *Communicator) (*tensor.Tensor, error) {
			if c.rank == 0 {
				stride, tagBase = c.opTagStride(), c.g.tagBase
			}
			ts := make([]*tensor.Tensor, len(sizes))
			e := c.rank * total
			for i, sz := range sizes {
				ts[i] = tensor.New(sz)
				for j := range ts[i].Data() {
					ts[i].Data()[j] = float64(e)
					e++
				}
			}
			return nil, c.ReduceBucketsInPlace(ts, OpSum, bucketCap)
		})

		sentBy := make([][]Range, n) // non-empty step-0 sends, in tag (= bucket) order
		lastTag := make([]int, n)
		for _, s := range rec.sent {
			if (s.tag-tagBase)%stride != 0 || len(s.data) == 0 {
				continue
			}
			if s.tag < lastTag[s.from] {
				t.Fatalf("n %d rank %d: bucket tags out of order", n, s.from)
			}
			lastTag[s.from] = s.tag
			lo := int(s.data[0]) - s.from*total
			for i, v := range s.data {
				if int(v) != s.from*total+lo+i {
					t.Fatalf("n %d rank %d tag %d: step-0 payload is not one range of the rank's own values", n, s.from, s.tag)
				}
			}
			sentBy[s.from] = append(sentBy[s.from], Range{lo, lo + len(s.data)})
		}

		sentOnce, ownedOnce := make([]int, total), make([]int, total)
		for r := 0; r < n; r++ {
			want := FirstSentRanges(sizes, bucketCap, n, r)
			if len(want) != len(sentBy[r]) {
				t.Fatalf("n %d rank %d: ring sent %v at step 0, FirstSentRanges %v", n, r, sentBy[r], want)
			}
			for i, w := range want {
				if w != sentBy[r][i] || w.Lo >= w.Hi {
					t.Fatalf("n %d rank %d: ring sent %v at step 0, FirstSentRanges %v", n, r, sentBy[r], want)
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
				t.Fatalf("n %d elem %d: first sent by %d ranks, owned by %d, want one each", n, e, sentOnce[e], ownedOnce[e])
			}
		}
	}
	if got := FirstSentRanges(sizes, bucketCap, 1, 0); got != nil {
		t.Fatalf("a lone rank sends nothing, FirstSentRanges %v", got)
	}
}
