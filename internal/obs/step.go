package obs

import "sync/atomic"

// The live telemetry plane's per-step pipeline: every rank publishes one
// StepSample per training step into a fixed-capacity lock-free ring, a
// heartbeat-paced reader drains new samples with ReadStepsSince, and the
// control plane's heartbeat carries them as JSON to the coordinator's
// ClusterTimeline.
//
// Like the span shards, the plane is gated by its own package-level atomic:
// disabled — the default — RecordStep is one atomic load and a branch, zero
// heap allocations. Enabled, publishing stays lock-free and allocation-free:
// a ticket from an atomic cursor claims a slot, the sample lands as plain
// atomic words, and a stamp store publishes it. The ring wraps (newest wins)
// rather than dropping new samples: live telemetry wants the current step,
// not the oldest unread one.

// StepSample is one rank's telemetry record for one completed training step.
// All fields are int64 so samples publish as fixed atomic words; durations
// are nanoseconds, byte/alloc/pool fields are deltas over the step.
type StepSample struct {
	Rank       int64 `json:"rank"`
	Step       int64 `json:"step"`
	WallNs     int64 `json:"wall_ns"`
	ComputeNs  int64 `json:"compute_ns"`
	WireNs     int64 `json:"wire_ns"`
	IdleNs     int64 `json:"idle_ns"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecvd int64 `json:"bytes_recvd"`
	QueueDepth int64 `json:"queue_depth"`
	PoolHit    int64 `json:"pool_hit"`
	PoolMiss   int64 `json:"pool_miss"`
	Allocs     int64 `json:"allocs"`
}

// PoolHitPct is the step's scratch-pool hit rate (0 when the step touched
// the pool not at all).
func (s *StepSample) PoolHitPct() float64 {
	if s.PoolHit+s.PoolMiss == 0 {
		return 0
	}
	return 100 * float64(s.PoolHit) / float64(s.PoolHit+s.PoolMiss)
}

const (
	// StepRingCap is the step-sample ring capacity (must stay a power of
	// two): at one sample per step it covers the last ~1k steps, far beyond
	// any heartbeat gap a live reader has to bridge.
	StepRingCap = 1 << 10

	stepWords = 12 // int64 fields per sample, kept in struct order
)

// stepSlot holds one published sample as atomic words plus the stamp that
// validates it: a reader accepts slot contents only when the stamp equals
// ticket+1 both before and after the copy, so a slot mid-overwrite (the ring
// wrapped during the read) is skipped, never torn — and because the words
// are atomics, the skip is also clean under the race detector.
type stepSlot struct {
	stamp atomic.Uint64
	w     [stepWords]atomic.Int64
}

var (
	stepGate   atomic.Bool
	stepRing   [StepRingCap]stepSlot
	stepCursor atomic.Int64 // total samples ever published (next ticket)
)

// EnableSteps arms the per-step telemetry plane. Idempotent. Callers almost
// always pair it with Enable(): the sample's breakdown/counter fields read
// the main registry, which records nothing while its own gate is off.
func EnableSteps() { stepGate.Store(true) }

// DisableSteps turns the plane off. Idempotent.
func DisableSteps() { stepGate.Store(false) }

// StepsEnabled reports the telemetry gate — for callers that must pay a real
// cost (computing a queue depth, reading runtime metrics) before RecordStep.
func StepsEnabled() bool { return stepGate.Load() }

// RecordStep publishes one sample into the ring. Disabled: one atomic load
// and a branch, zero allocations. Enabled: lock-free, allocation-free.
func RecordStep(s StepSample) {
	if !stepGate.Load() {
		return
	}
	t := stepCursor.Add(1) - 1
	sl := &stepRing[t&(StepRingCap-1)]
	sl.stamp.Store(0) // invalidate before mutating so readers never mix tickets
	sl.w[0].Store(s.Rank)
	sl.w[1].Store(s.Step)
	sl.w[2].Store(s.WallNs)
	sl.w[3].Store(s.ComputeNs)
	sl.w[4].Store(s.WireNs)
	sl.w[5].Store(s.IdleNs)
	sl.w[6].Store(s.BytesSent)
	sl.w[7].Store(s.BytesRecvd)
	sl.w[8].Store(s.QueueDepth)
	sl.w[9].Store(s.PoolHit)
	sl.w[10].Store(s.PoolMiss)
	sl.w[11].Store(s.Allocs)
	sl.stamp.Store(uint64(t) + 1)
}

// StepCount returns how many samples have ever been published (the ring
// holds the newest StepRingCap of them).
func StepCount() int64 { return stepCursor.Load() }

// ReadStepsSince copies samples published after *cursor into dst, oldest
// first, and advances *cursor past what it consumed (including any slots the
// ring overwrote or that were mid-publish — telemetry readers want progress,
// not completeness). A cursor more than StepRingCap behind skips forward to
// the oldest sample still resident. Returns the number of samples written;
// call in a loop (or with a large dst) to drain a backlog. Allocation-free.
func ReadStepsSince(cursor *int64, dst []StepSample) int {
	cur := stepCursor.Load()
	from := *cursor
	if from < 0 {
		from = 0
	}
	if cur-from > StepRingCap {
		from = cur - StepRingCap
	}
	n := 0
	t := from
	for ; t < cur && n < len(dst); t++ {
		sl := &stepRing[t&(StepRingCap-1)]
		if sl.stamp.Load() != uint64(t)+1 {
			continue // overwritten by a wrap or mid-publish; skip
		}
		s := StepSample{
			Rank: sl.w[0].Load(), Step: sl.w[1].Load(), WallNs: sl.w[2].Load(),
			ComputeNs: sl.w[3].Load(), WireNs: sl.w[4].Load(), IdleNs: sl.w[5].Load(),
			BytesSent: sl.w[6].Load(), BytesRecvd: sl.w[7].Load(), QueueDepth: sl.w[8].Load(),
			PoolHit: sl.w[9].Load(), PoolMiss: sl.w[10].Load(), Allocs: sl.w[11].Load(),
		}
		if sl.stamp.Load() != uint64(t)+1 {
			continue // wrapped mid-copy; the words may mix tickets — discard
		}
		dst[n] = s
		n++
	}
	*cursor = t
	return n
}

// resetStepsForTest rewinds the ring to empty — test hook only (the cursor
// is monotonic in production so heartbeat cursors never see time reverse).
func resetStepsForTest() {
	stepCursor.Store(0)
	for i := range stepRing {
		stepRing[i].stamp.Store(0)
	}
}
