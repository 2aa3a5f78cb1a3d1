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
// encoding) or got back from Recv (after decoding); for a lent send with a
// residual, the residual as it was handed over and as the send left it.
type wireEvent struct {
	sent          bool
	data          []float64
	before, after []float64
}

// wireLog records, per actor and in the actor's own order, every payload
// that crosses the transport it wraps.
type wireLog struct {
	transport.Transport
	mu sync.Mutex
	by map[int][]wireEvent
}

func (w *wireLog) record(actor int, ev wireEvent) {
	w.mu.Lock()
	w.by[actor] = append(w.by[actor], ev)
	w.mu.Unlock()
}

func (w *wireLog) Send(from, to, tag int, t *tensor.Tensor) {
	w.record(from, wireEvent{sent: true, data: slices.Clone(t.Data())})
	w.Transport.Send(from, to, tag, t)
}

func (w *wireLog) SendLent(from, to, tag int, payload, residual []float64) {
	ev := wireEvent{sent: true, data: slices.Clone(payload), before: slices.Clone(residual)}
	w.Transport.SendLent(from, to, tag, payload, residual)
	ev.after = slices.Clone(residual) // final when SendLent returns
	w.record(from, ev)
}

func (w *wireLog) Recv(to, from, tag int) (*tensor.Tensor, error) {
	t, err := w.Transport.Recv(to, from, tag)
	if err == nil {
		w.record(to, wireEvent{data: slices.Clone(t.Data())})
	}
	return t, err
}

// TestErrorFeedbackCompensatesWhatIsSent drives the reduce half of int8q
// replica groups over real TCP endpoints with made-up gradients and checks,
// frame by frame, that error feedback sits where the precision is lost:
//
//   - what a peer decodes at hop 0, plus the residual the send left, is bit
//     for bit the raw chunk plus the residual it was handed — the frame ships
//     exactly what the residual no longer holds;
//   - what leaves a rank is its raw gradient: hop 0 sends the raw chunk, later
//     hops send raw + received, and the owned chunk ends as raw + last
//     received;
//   - over the steps, everything decoded at hop 0 plus the residual left over
//     is everything the backward pass produced, to rounding;
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
			// chunk[j][b] is balanced chunk j of bucket b, which rank j sends
			// first and rank j-1 owns (none is empty here, so none merge).
			chunk := make([][]collective.Range, n)
			for j := range chunk {
				chunk[j] = collective.OwnedRanges(sizes, bucketCap, n, (j+n-1)%n)
				if len(chunk[j]) != numBuckets {
					t.Fatalf("chunk %d: %d ranges for %d buckets", j, len(chunk[j]), numBuckets)
				}
			}
			eps := make([]*stageEpilogue, n)
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
				if tc.lossy[r] {
					// What Run does on a rank whose wire dtype is int8q.
					mesh.Endpoint(r).SetLossyTagWindow(collective.GroupTagRange(gradGroupID))
					mesh.Endpoint(r).SetWireDType(dist.DTInt8Q)
					eps[r].grads.ArmErrorFeedback()
				}
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
							// What left the rank: at hop 0 its own raw values, from
							// then on raw + what it received.
							want := raw[r][sendSeg.Lo:sendSeg.Hi]
							if h > 0 {
								want = add(want, ev[at-1].data)
							}
							requireSameBits(t, "sent chunk", step, r, b, h, send.data, want)
							if withRes := send.before != nil; withRes != (h == 0 && tc.lossy[r]) {
								t.Fatalf("step %d rank %d bucket %d hop %d: residual handed over %v", step, r, b, h, withRes)
							}
							// What arrived: bit for bit what the peer sent when the
							// peer's frame is lossless; at a compensated hop 0, the
							// peer's raw + residual minus the residual it kept.
							switch p := (r + n - 1) % n; {
							case !tc.lossy[p]:
								requireSameBits(t, "decoded chunk", step, r, b, h, recv.data, peer.data)
							case h == 0:
								requireSameBits(t, "decoded + residual after", step, r, b, h,
									add(recv.data, peer.after), add(peer.data, peer.before))
								for i, v := range recv.data {
									sumSent[p][recvSeg.Lo+i] += v
								}
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

			kept := 0
			for r, ep := range eps {
				res := ep.grads.Residuals()
				if armed := res != nil; armed != tc.lossy[r] {
					t.Fatalf("rank %d: error feedback armed %v, wire lossy %v", r, armed, tc.lossy[r])
				}
				if res == nil {
					continue
				}
				if len(res) != numBuckets {
					t.Fatalf("rank %d keeps %d residuals for %d buckets", r, len(res), numBuckets)
				}
				mine := 0
				for b, rb := range res {
					if len(rb) != chunk[r][b].Hi-chunk[r][b].Lo {
						t.Fatalf("rank %d residual %d covers %d elements, the frame %v", r, b, len(rb), chunk[r][b])
					}
					mine += len(rb)
					for i, v := range rb {
						e := chunk[r][b].Lo + i
						tol := 4 * steps * 0x1p-52 * max(biggest, math.Abs(sumRaw[r][e]), math.Abs(sumSent[r][e]))
						if d := math.Abs(sumSent[r][e] + v - sumRaw[r][e]); !(d <= tol) {
							t.Fatalf("rank %d elem %d: shipped %v + residual %v misses the %v produced by %v (tolerance %v)", r, e, sumSent[r][e], v, sumRaw[r][e], d, tol)
						}
					}
				}
				if mine > total/n+numBuckets {
					t.Fatalf("rank %d keeps %d residual elements of a %d-element stage over %d replicas", r, mine, total, n)
				}
				kept += mine
			}
			if !slices.Contains(tc.lossy, false) && kept != total {
				t.Fatalf("the group keeps %d residual elements for a %d-element stage", kept, total)
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
