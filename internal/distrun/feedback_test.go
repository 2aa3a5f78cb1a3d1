package distrun

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	jaxpp "repro"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// wireEvent is one payload an actor handed to Send or SendLent (before any
// encoding) or got back from Recv (after decoding).
type wireEvent struct {
	sent bool
	data []float64
}

// wireLog records, per actor and in the actor's own order, every payload
// that crosses the transport it wraps.
type wireLog struct {
	transport.Transport
	mu sync.Mutex
	by map[int][]wireEvent
}

func (w *wireLog) record(actor int, sent bool, data []float64) {
	w.mu.Lock()
	w.by[actor] = append(w.by[actor], wireEvent{sent, append([]float64(nil), data...)})
	w.mu.Unlock()
}

func (w *wireLog) Send(from, to, tag int, t *tensor.Tensor) {
	w.record(from, true, t.Data())
	w.Transport.Send(from, to, tag, t)
}

func (w *wireLog) SendLent(from, to, tag int, payload []float64) {
	w.record(from, true, payload)
	w.Transport.SendLent(from, to, tag, payload)
}

func (w *wireLog) Recv(to, from, tag int) (*tensor.Tensor, error) {
	t, err := w.Transport.Recv(to, from, tag)
	if err == nil {
		w.record(to, false, t.Data())
	}
	return t, err
}

// TestErrorFeedbackCompensatesWhatIsSent drives the reduce half of int8q
// replica groups over real TCP endpoints with made-up gradients and checks,
// frame by frame, that error feedback sits where the precision is lost:
//
//   - what a peer decodes at hop 0 is bit for bit what the sender holds after
//     feedback — the frame's own quantization is the identity on it;
//   - every element outside the chunk a rank sends first is still the raw
//     gradient when the ring picks it up: later hops send raw + received, and
//     the owned chunk ends as raw + last received;
//   - over the steps, everything sent plus the residual left over is
//     everything the backward pass produced, to rounding;
//   - a rank keeps residuals for what it sends first alone, stage ÷ replicas;
//   - error feedback is rank-local: a rank that compresses alone compensates
//     alone, and its peer's gradients travel untouched.
func TestErrorFeedbackCompensatesWhatIsSent(t *testing.T) {
	const (
		bucketCap = 100 * 8
		steps     = 12
	)
	sizes := []int{37, 41, 250, 13} // buckets [37 41] (fused), [250] (over the cap), [13]
	numBuckets := collective.NumBuckets(sizes, bucketCap)
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	for _, tc := range []struct {
		name  string
		lossy []bool // by rank
	}{
		{"dp2", []bool{true, true}},
		{"dp3", []bool{true, true, true}},
		{"canary", []bool{false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.lossy)
			mesh, err := dist.NewLocalMesh(n, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			log := &wireLog{Transport: mesh, by: map[int][]wireEvent{}}
			plan, err := newShardPlan(make([]int, len(sizes)), sizes)
			if err != nil {
				t.Fatal(err)
			}
			// chunk[j][b] is balanced chunk j of bucket b (none is empty here).
			chunk := make([][]collective.Range, n)
			for j := range chunk {
				chunk[j] = collective.FirstSentRanges(sizes, bucketCap, n, j)
				if len(chunk[j]) != numBuckets {
					t.Fatalf("chunk %d: %d ranges for %d buckets", j, len(chunk[j]), numBuckets)
				}
			}
			eps := make([]*stageEpilogue, n)
			kept := 0
			for r := range eps {
				params := make([]*jaxpp.Tensor, len(sizes))
				for i, sz := range sizes {
					params[i] = jaxpp.NewTensor(sz)
				}
				spec := JobSpec{Stages: 1, DataParallel: n, LR: 0.1}
				if eps[r], err = newStageEpilogue(spec, log, plan, params, r, bucketCap); err != nil {
					t.Fatal(err)
				}
				defer eps[r].release()
				if !tc.lossy[r] {
					continue
				}
				// What Run does on a rank whose wire dtype is int8q.
				mesh.Endpoint(r).SetLossyTagWindow(collective.GroupTagRange(gradGroupID))
				mesh.Endpoint(r).SetWireDType(dist.DTInt8Q)
				eps[r].armErrorFeedback()
				mine := 0
				for b, f := range eps[r].ef {
					if f.res.Size() != chunk[r][b].Hi-chunk[r][b].Lo {
						t.Fatalf("rank %d residual %d covers %d elements, the frame %v", r, b, f.res.Size(), chunk[r][b])
					}
					mine += f.res.Size()
				}
				if mine > total/n+numBuckets {
					t.Fatalf("rank %d keeps %d residual elements of a %d-element stage over %d replicas", r, mine, total, n)
				}
				kept += mine
			}
			if !slices.Contains(tc.lossy, false) && kept != total {
				t.Fatalf("the group keeps %d residual elements for a %d-element stage", kept, total)
			}

			sumRaw, sumSent := make([][]float64, n), make([][]float64, n)
			for r := range sumRaw {
				sumRaw[r], sumSent[r] = make([]float64, total), make([]float64, total)
			}
			biggest := 0.0
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < steps; step++ {
				raw := make([][]float64, n)
				reduced := make([][]float64, n)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for r := 0; r < n; r++ {
					raw[r] = make([]float64, total)
					for e := range raw[r] {
						raw[r][e] = rng.NormFloat64() * math.Pow(10, float64(step%5-2))
						biggest = max(biggest, math.Abs(raw[r][e]))
					}
					grads, off := make([]*tensor.Tensor, len(sizes)), 0
					for i, sz := range sizes {
						grads[i] = tensor.New(sz)
						grads[i].CopyFrom(raw[r][off : off+sz])
						off += sz
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[r] = eps[r].reduce(r, grads)
						for _, g := range grads {
							reduced[r] = append(reduced[r], g.Data()...)
						}
					}()
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("step %d rank %d: %v", step, r, err)
					}
				}
				for r := 0; r < n; r++ {
					ev, prev := log.by[r], log.by[(r+n-1)%n]
					if len(ev) != 2*(n-1)*numBuckets {
						t.Fatalf("step %d rank %d: %d wire events, want a send and a receive per hop per bucket", step, r, len(ev))
					}
					for b := 0; b < numBuckets; b++ {
						for h := 0; h < n-1; h++ {
							at := 2 * (b*(n-1) + h)
							send, recv, peer := ev[at], ev[at+1], prev[at]
							if !send.sent || recv.sent || !peer.sent {
								t.Fatalf("step %d rank %d bucket %d hop %d: events out of order", step, r, b, h)
							}
							sendSeg, recvSeg := chunk[(r-h+n)%n][b], chunk[(r-h-1+2*n)%n][b]
							// What left the rank: at hop 0 its own values — raw, or
							// after feedback; from then on raw + what it received.
							want := raw[r][sendSeg.Lo:sendSeg.Hi]
							if h > 0 {
								want = add(want, ev[at-1].data)
							}
							if h > 0 || !tc.lossy[r] {
								requireSameBits(t, "sent chunk", step, r, b, h, send.data, want)
							} else {
								for i, v := range send.data {
									sumSent[r][sendSeg.Lo+i] += v
								}
							}
							// What arrived: bit for bit what the peer sent when the
							// peer's frame is lossless or a compensated hop-0 frame.
							if h == 0 || !tc.lossy[(r+n-1)%n] {
								requireSameBits(t, "decoded chunk", step, r, b, h, recv.data, peer.data)
							}
							if h == n-2 {
								got := reduced[r][recvSeg.Lo:recvSeg.Hi]
								requireSameBits(t, "owned chunk", step, r, b, h, got, add(raw[r][recvSeg.Lo:recvSeg.Hi], recv.data))
							}
						}
					}
					for e, v := range raw[r] {
						sumRaw[r][e] += v
					}
				}
				clear(log.by)
			}

			for r, ep := range eps {
				for b, f := range ep.ef {
					for i, res := range f.res.Data() {
						e := chunk[r][b].Lo + i
						tol := 4 * steps * 0x1p-52 * max(biggest, math.Abs(sumRaw[r][e]), math.Abs(sumSent[r][e]))
						if d := math.Abs(sumSent[r][e] + res - sumRaw[r][e]); !(d <= tol) {
							t.Fatalf("rank %d elem %d: sent %v + residual %v misses the %v produced by %v (tolerance %v)", r, e, sumSent[r][e], res, sumRaw[r][e], d, tol)
						}
					}
				}
				if armed := len(ep.ef) > 0; armed != tc.lossy[r] {
					t.Fatalf("rank %d: error feedback armed %v, wire lossy %v", r, armed, tc.lossy[r])
				}
			}
		})
	}
}

func add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func requireSameBits(t *testing.T, what string, step, rank, bucket, hop int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d rank %d bucket %d hop %d: %s has %d elements, want %d", step, rank, bucket, hop, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d rank %d bucket %d hop %d: %s elem %d is %v (%#x), want %v (%#x)",
				step, rank, bucket, hop, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
