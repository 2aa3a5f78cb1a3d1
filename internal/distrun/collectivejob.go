package distrun

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The wire-collective verification job: every rank of a bootstrapped world
// runs the same deterministic sequence of ring collectives — bucketed
// AllReduce, AllGather, Broadcast, Barrier — over the TCP data plane and
// checks the results against locally computed expectations. Payloads are
// integer-valued floats, so every reduction order produces identical bits
// and verification needs no tolerance and no reference rank: each process
// can convict the wire path on its own and exit nonzero. This is the job
// the 8-process CI smoke runs — the first collective larger than 4
// processes ever exercised over real sockets.

// KindCollective is the CollectiveSpec payload kind.
const KindCollective = "collective"

// CollectiveSpec is the coordinator-distributed description of one
// wire-collective verification job.
type CollectiveSpec struct {
	Kind  string `json:"kind"` // KindCollective
	World int    `json:"world"`
	// Elems is the per-rank element count of the all-reduced vector (split
	// into several tensors so bucket fusion is exercised).
	Elems int    `json:"elems"`
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
	// BucketBytes caps fusion buckets (0 = collective.DefaultBucketBytes).
	// The CI smoke passes a small cap so one iteration walks several
	// buckets and chunked rings rather than a single fused transfer.
	BucketBytes int `json:"bucket_bytes,omitempty"`
	// WireDType selects the collective wire encoding ("" or "f64" lossless,
	// "f32" single-precision). The verification payloads are integers far
	// below 2^24, so every value and partial sum is exactly representable in
	// f32 and the bit-exact self-checks still hold — which is precisely what
	// makes the f32 smoke a real verification and rules out "int8q": its
	// round trip is lossy by design, so a bit-exact check is impossible and
	// Validate rejects it.
	WireDType string `json:"wire_dtype,omitempty"`
}

// Marshal encodes the spec for the rendezvous job payload.
func (s CollectiveSpec) Marshal() []byte {
	s.Kind = KindCollective
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain struct of scalars; cannot fail
	}
	return data
}

// Validate checks the spec's invariants — shared by the decode path and the
// local/coordinator entry points, so a degenerate spec (world 0 would
// "verify" nothing and report success) fails loudly everywhere.
func (s CollectiveSpec) Validate() error {
	if s.World < 1 || s.Elems < 1 || s.Iters < 1 {
		return fmt.Errorf("distrun: invalid collective spec %+v", s)
	}
	dt, err := dist.ParseDType(s.WireDType)
	if err != nil {
		return err
	}
	if dt == dist.DTInt8Q {
		return fmt.Errorf("distrun: collective verification cannot run on int8q: the quantized round trip is lossy, so the job's bit-exact self-check cannot pass")
	}
	return nil
}

// UnmarshalCollectiveSpec decodes a rendezvous job payload.
func UnmarshalCollectiveSpec(data []byte) (CollectiveSpec, error) {
	var s CollectiveSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("distrun: bad collective job payload: %w", err)
	}
	if s.Kind != KindCollective {
		return s, fmt.Errorf("distrun: payload kind %q is not a collective job", s.Kind)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// RunCollective executes the verification job on this rank of a
// bootstrapped session and blocks until every rank has passed (the session
// barrier at the end keeps a fast rank from tearing down the mesh under a
// slower one).
func RunCollective(sess *dist.Session, spec CollectiveSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if sess.World != spec.World {
		return fmt.Errorf("distrun: session world %d, collective job wants %d", sess.World, spec.World)
	}
	// Unlike a training job, every collective here is the thing under test, so
	// the world communicator's whole tag window rides the requested encoding.
	if dt, _ := dist.ParseDType(spec.WireDType); !dt.Lossless() { // Validate vetted the name
		sess.Transport.SetLossyTagWindow(collective.GroupTagRange(worldGroupID))
		sess.Transport.SetWireDType(dt)
	}
	if err := RunCollectiveOn(sess.Transport, sess.Rank, spec); err != nil {
		return err
	}
	if err := sess.Barrier(); err != nil {
		return fmt.Errorf("distrun: rank %d end-of-job barrier: %w", sess.Rank, err)
	}
	return nil
}

// RunCollectiveLocal runs the same verification inside one process over a
// dist.LocalMesh (one TCP endpoint per rank, one goroutine per rank) — the
// single-binary rehearsal of the multi-process smoke. opts configures the
// endpoints (CRC trailers, receive timeouts).
func RunCollectiveLocal(spec CollectiveSpec, opts dist.Options) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	mesh, err := dist.NewLocalMesh(spec.World, opts)
	if err != nil {
		return err
	}
	defer mesh.Close()
	if dt, _ := dist.ParseDType(spec.WireDType); !dt.Lossless() { // as in RunCollective
		mesh.SetLossyTagWindow(collective.GroupTagRange(worldGroupID))
		mesh.SetWireDType(dt)
	}
	errs := make([]error, spec.World)
	done := make(chan int, spec.World)
	for r := 0; r < spec.World; r++ {
		go func(r int) {
			errs[r] = RunCollectiveOn(mesh, r, spec)
			if errs[r] != nil {
				// A failed rank stops participating in the ring; poison the
				// mesh so its peers fail out of their receives immediately
				// instead of blocking until the receive timeout.
				mesh.Poison(fmt.Errorf("distrun: local collective rank %d failed: %w", r, errs[r]))
			}
			done <- r
		}(r)
	}
	for i := 0; i < spec.World; i++ {
		<-done
	}
	// Report the verification failure that started the collapse, not a
	// peer's secondary poisoned-transport error.
	if err := mesh.Err(); err != nil {
		return err
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("distrun: local collective rank %d: %w", r, err)
		}
	}
	return nil
}

// vShardCounts is the deliberately uneven variable-shard partition the
// verification job exercises: the balanced split with the middle rank's
// allotment handed to its successor, so every world of two or more ranks
// walks the empty-shard edge case (zero-size ring chunks must still keep the
// tag windows in lockstep).
func vShardCounts(elems, n int) []int {
	counts := collective.EvenCounts(elems, n)
	if n >= 2 {
		z := n / 2
		counts[(z+1)%n] += counts[z]
		counts[z] = 0
	}
	return counts
}

// rankValue is the deterministic integer-valued payload element for (rank,
// element, iteration): small enough that world-size sums stay far below
// 2^53, so floating-point addition is exact in every order.
func rankValue(spec CollectiveSpec, rank, i, iter int) float64 {
	base := float64(spec.Seed%1000+1) + float64(iter)
	return (base + float64(rank+1)) * float64(i%97+1)
}

// RunCollectiveOn is the transport-level core of the verification job,
// shared by the multi-process path (dist.Transport) and the LocalMesh
// rehearsal, each of which arms spec.WireDType on its transport first. rank
// is this caller's actor ID; every actor 0..World-1 must run it concurrently.
func RunCollectiveOn(tr transport.Transport, rank int, spec CollectiveSpec) error {
	comm, err := worldComm(tr, spec.World, rank)
	if err != nil {
		return err
	}
	n := spec.World

	// Split the per-rank vector into three tensors sized so the bucketed
	// all-reduce walks both of its paths: the two small tensors together fit
	// one fusion bucket (the flat pack/reduce/unpack staging path), while
	// the remainder — larger than the cap for every shipped configuration —
	// forms its own single-tensor bucket (the direct in-place path).
	bb := spec.BucketBytes
	if bb <= 0 {
		bb = collective.DefaultBucketBytes
	}
	capElems := max(bb/8, 2)
	small := max(min(spec.Elems/4, capElems/2), 1)
	sizes := []int{small, small, max(spec.Elems-2*small, 1)}
	ts := make([]*tensor.Tensor, len(sizes))
	for i, sz := range sizes {
		ts[i] = tensor.GetScratch(sz)
	}
	defer func() {
		for _, t := range ts {
			tensor.Recycle(t)
		}
	}()

	shardLen := max(spec.Elems/n, 1)
	shard := tensor.GetScratch(shardLen)
	gathered := tensor.GetScratch(n * shardLen)
	bcast := tensor.GetScratch(shardLen)
	defer tensor.Recycle(shard)
	defer tensor.Recycle(gathered)
	defer tensor.Recycle(bcast)

	// Variable-shard pair: uneven counts (one deliberately empty shard for
	// n >= 2 — see vShardCounts), a full per-rank vector reduced-scattered
	// down to this rank's slice, then gathered back, which must reproduce
	// the all-reduce sum bit for bit on every rank.
	vcounts := vShardCounts(spec.Elems, n)
	vfull := tensor.GetScratch(spec.Elems)
	vshard := tensor.GetScratch(vcounts[rank])
	vout := tensor.GetScratch(spec.Elems)
	defer tensor.Recycle(vfull)
	defer tensor.Recycle(vshard)
	defer tensor.Recycle(vout)
	vstart := 0
	for r := 0; r < rank; r++ {
		vstart += vcounts[r]
	}

	for iter := 0; iter < spec.Iters; iter++ {
		// Bucketed ring AllReduce: verify the element-wise sum over ranks.
		off := 0
		for _, t := range ts {
			for j := range t.Data() {
				t.Data()[j] = rankValue(spec, rank, off+j, iter)
			}
			off += t.Size()
		}
		if err := comm.AllReduceBucketsInPlace(ts, collective.OpSum, spec.BucketBytes); err != nil {
			return fmt.Errorf("rank %d iter %d all-reduce: %w", rank, iter, err)
		}
		off = 0
		for ti, t := range ts {
			for j, got := range t.Data() {
				var want float64
				for r := 0; r < n; r++ {
					want += rankValue(spec, r, off+j, iter)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("rank %d iter %d all-reduce tensor %d elem %d: got %v, want %v", rank, iter, ti, j, got, want)
				}
			}
			off += t.Size()
		}

		// Ring AllGather: verify every rank's shard lands in its slot.
		for j := range shard.Data() {
			shard.Data()[j] = rankValue(spec, rank, j, iter)
		}
		if err := comm.AllGatherInto(gathered, shard); err != nil {
			return fmt.Errorf("rank %d iter %d all-gather: %w", rank, iter, err)
		}
		for r := 0; r < n; r++ {
			for j := 0; j < shardLen; j++ {
				got, want := gathered.Data()[r*shardLen+j], rankValue(spec, r, j, iter)
				if math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("rank %d iter %d all-gather slot (%d,%d): got %v, want %v", rank, iter, r, j, got, want)
				}
			}
		}

		// ReduceScatterV → AllGatherV: the ZeRO epilogue's exchange pair over
		// uneven shards (including an empty one). The reduce-scatter consumes
		// the full input as scratch and delivers only this rank's slice; the
		// gather of the variable-size slices must equal the all-reduce sum.
		for j := range vfull.Data() {
			vfull.Data()[j] = rankValue(spec, rank, j, iter)
		}
		if err := comm.ReduceScatterVInto(vshard, vfull, vcounts, collective.OpSum, spec.BucketBytes); err != nil {
			return fmt.Errorf("rank %d iter %d reduce-scatterv: %w", rank, iter, err)
		}
		for j, got := range vshard.Data() {
			var want float64
			for r := 0; r < n; r++ {
				want += rankValue(spec, r, vstart+j, iter)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("rank %d iter %d reduce-scatterv elem %d: got %v, want %v", rank, iter, j, got, want)
			}
		}
		if err := comm.AllGatherVInto(vout, vshard, vcounts); err != nil {
			return fmt.Errorf("rank %d iter %d all-gatherv: %w", rank, iter, err)
		}
		for j, got := range vout.Data() {
			var want float64
			for r := 0; r < n; r++ {
				want += rankValue(spec, r, j, iter)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("rank %d iter %d all-gatherv elem %d: got %v, want %v", rank, iter, j, got, want)
			}
		}

		// Pipelined ring Broadcast from a rotating root.
		root := iter % n
		if rank == root {
			for j := range bcast.Data() {
				bcast.Data()[j] = rankValue(spec, root, j, iter)
			}
		} else {
			clear(bcast.Data())
		}
		if err := comm.BroadcastInto(bcast, root); err != nil {
			return fmt.Errorf("rank %d iter %d broadcast: %w", rank, iter, err)
		}
		for j, got := range bcast.Data() {
			if want := rankValue(spec, root, j, iter); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("rank %d iter %d broadcast elem %d: got %v, want %v", rank, iter, j, got, want)
			}
		}

		// Dissemination barrier rounds off the iteration, keeping tag
		// windows in lockstep across ranks of any speed.
		if err := comm.Barrier(); err != nil {
			return fmt.Errorf("rank %d iter %d barrier: %w", rank, iter, err)
		}
	}
	return nil
}
