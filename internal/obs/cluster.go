package obs

import (
	"log"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs/flight"
)

// ClusterTimeline is the aggregate of the telemetry plane: the step samples a
// dist session hands its OnMetrics sink (its own rank's, and on the
// coordinator every worker's, streamed in over the control-plane heartbeat)
// land here, and each ingest re-evaluates the straggler detectors. It backs
// /metrics, /debug/cluster, and the one-line WARNs an operator actually reads.

// Straggler detection thresholds.
const (
	// stragglerFactor flags a rank whose step wall time exceeds this multiple
	// of the median of the latest wall times across ranks.
	stragglerFactor = 2.0
	// stragglerStrikes is how many consecutive over-threshold steps it takes
	// to flag — one slow step is noise, three in a row is a straggler.
	stragglerStrikes = 3
	// stragglerMinWall ignores faster steps: at microsecond step times
	// scheduler jitter swamps any real signal.
	stragglerMinWall = time.Millisecond
	// queueGrowthStrikes flags persistent sender-queue growth: this many
	// consecutive samples with strictly increasing depth above queueFloor.
	queueGrowthStrikes = 5
	queueFloor         = 4
)

// RankState is one rank's latest telemetry as the coordinator sees it.
type RankState struct {
	Last       StepSample `json:"last"`
	Samples    int64      `json:"samples"`
	LastSeenNs int64      `json:"last_seen_ns"` // coordinator wall clock
	Straggler  bool       `json:"straggler"`
	Reason     string     `json:"reason,omitempty"`

	strikes      int // consecutive over-threshold steps
	queueStrikes int // consecutive strictly-increasing queue depths
	lastQueue    int64
}

// ClusterTimeline aggregates per-rank samples and flags stragglers. Safe for
// concurrent use (heartbeat handler goroutines + HTTP handlers).
type ClusterTimeline struct {
	mu    sync.Mutex
	ranks map[int64]*RankState
	flags int64 // straggler flag transitions (mirrors the obs counter)

	// wallMedianScratch avoids per-ingest allocation for the median.
	wallScratch []int64
}

// cStragglerFlags counts flag transitions in the obs counter registry so the
// signal shows up in profiling snapshots and /metrics passthrough alike.
var cStragglerFlags = Counter("telemetry/straggler_flags")

// NewClusterTimeline builds an empty timeline.
func NewClusterTimeline() *ClusterTimeline {
	return &ClusterTimeline{ranks: make(map[int64]*RankState)}
}

// Ingest adds samples in order — a worker's heartbeat-piggybacked batch, or
// the one sample its own session just recorded.
func (tl *ClusterTimeline) Ingest(samples ...StepSample) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, s := range samples {
		tl.ingestLocked(s)
	}
}

func (tl *ClusterTimeline) ingestLocked(s StepSample) {
	rs := tl.ranks[s.Rank]
	if rs == nil {
		rs = &RankState{}
		tl.ranks[s.Rank] = rs
	}
	rs.Last = s
	rs.Samples++
	rs.LastSeenNs = time.Now().UnixNano()

	tl.evalStepTimeLocked(rs, s)
	tl.evalQueueLocked(rs, s)
}

// medianWallLocked is the median of every rank's latest step wall time.
func (tl *ClusterTimeline) medianWallLocked() int64 {
	tl.wallScratch = tl.wallScratch[:0]
	for _, rs := range tl.ranks {
		if rs.Last.WallNs > 0 {
			tl.wallScratch = append(tl.wallScratch, rs.Last.WallNs)
		}
	}
	if len(tl.wallScratch) == 0 {
		return 0
	}
	slices.Sort(tl.wallScratch)
	return tl.wallScratch[len(tl.wallScratch)/2]
}

func (tl *ClusterTimeline) evalStepTimeLocked(rs *RankState, s StepSample) {
	// Need at least two ranks for a median to mean anything.
	if len(tl.ranks) < 2 || s.WallNs < int64(stragglerMinWall) {
		rs.strikes = 0
		tl.maybeClearLocked(rs, s)
		return
	}
	med := tl.medianWallLocked()
	if med <= 0 || float64(s.WallNs) <= stragglerFactor*float64(med) {
		rs.strikes = 0
		tl.maybeClearLocked(rs, s)
		return
	}
	rs.strikes++
	if rs.strikes >= stragglerStrikes && !rs.Straggler {
		rs.Straggler = true
		rs.Reason = "step-time"
		tl.flags++
		Add(cStragglerFlags, 1)
		log.Printf("WARN: obs: rank %d straggling: step %d wall %.1fms > %.1f× median %.1fms (%d consecutive)",
			s.Rank, s.Step, float64(s.WallNs)/1e6, stragglerFactor, float64(med)/1e6, rs.strikes)
		flight.Log("straggler", int(s.Rank), int(s.Step), rs.Reason)
	}
}

func (tl *ClusterTimeline) evalQueueLocked(rs *RankState, s StepSample) {
	if s.QueueDepth > queueFloor && s.QueueDepth > rs.lastQueue {
		rs.queueStrikes++
	} else {
		rs.queueStrikes = 0
	}
	rs.lastQueue = s.QueueDepth
	if rs.queueStrikes >= queueGrowthStrikes && !rs.Straggler {
		rs.Straggler = true
		rs.Reason = "queue-growth"
		tl.flags++
		Add(cStragglerFlags, 1)
		log.Printf("WARN: obs: rank %d straggling: sender queue grew %d samples in a row to depth %d",
			s.Rank, rs.queueStrikes, s.QueueDepth)
		flight.Log("straggler", int(s.Rank), int(s.Step), rs.Reason)
	}
}

// maybeClearLocked clears a flag once both detectors are quiet again.
func (tl *ClusterTimeline) maybeClearLocked(rs *RankState, s StepSample) {
	if rs.Straggler && rs.strikes == 0 && rs.queueStrikes == 0 {
		rs.Straggler = false
		log.Printf("obs: rank %d caught up (straggler flag cleared at step %d)", s.Rank, s.Step)
		flight.Log("straggler_clear", int(s.Rank), int(s.Step), rs.Reason)
		rs.Reason = ""
	}
}

// ClusterSnapshot is the /debug/cluster JSON shape.
type ClusterSnapshot struct {
	TakenNs    int64               `json:"taken_ns"`
	Ranks      map[int64]RankState `json:"ranks"`
	Stragglers []int64             `json:"stragglers"`
	FlagsTotal int64               `json:"straggler_flags_total"`
}

// Snapshot copies the timeline for serving; allocates (cold path).
func (tl *ClusterTimeline) Snapshot() ClusterSnapshot {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	snap := ClusterSnapshot{
		TakenNs:    time.Now().UnixNano(),
		Ranks:      make(map[int64]RankState, len(tl.ranks)),
		FlagsTotal: tl.flags,
	}
	for r, rs := range tl.ranks {
		snap.Ranks[r] = *rs
		if rs.Straggler {
			snap.Stragglers = append(snap.Stragglers, r)
		}
	}
	sort.Slice(snap.Stragglers, func(i, j int) bool { return snap.Stragglers[i] < snap.Stragglers[j] })
	return snap
}
