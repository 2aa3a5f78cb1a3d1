package obs

import (
	"io"
	"log"
	"slices"
	"strings"
	"testing"
	"time"
)

// captureLog redirects the standard logger into w; the returned func restores it.
func captureLog(w io.Writer) func() {
	prev := log.Writer()
	log.SetOutput(w)
	return func() { log.SetOutput(prev) }
}

func fastSample(rank, step int64) StepSample {
	return StepSample{Rank: rank, Step: step, WallNs: int64(10 * time.Millisecond)}
}

func slowSample(rank, step int64) StepSample {
	return StepSample{Rank: rank, Step: step, WallNs: int64(50 * time.Millisecond)}
}

// TestStragglerDelayedRank is the synthetic delayed-rank harness: four ranks
// step together, rank 2 runs 5× slower for a stretch, and the flag must fire
// for rank 2 only — then clear once it catches back up.
func TestStragglerDelayedRank(t *testing.T) {
	tl := NewClusterTimeline()
	const world = 4
	const slowRank = 2

	// Warm-up: everyone healthy.
	for step := int64(0); step < 3; step++ {
		for r := int64(0); r < world; r++ {
			tl.Ingest(fastSample(r, step))
		}
	}
	if got := tl.Snapshot().FlagsTotal; got != 0 {
		t.Fatalf("healthy warm-up raised %d flags", got)
	}

	// Rank 2 falls behind for 5 steps (needs Strikes=3 to flag).
	for step := int64(3); step < 8; step++ {
		for r := int64(0); r < world; r++ {
			if r == slowRank {
				tl.Ingest(slowSample(r, step))
			} else {
				tl.Ingest(fastSample(r, step))
			}
		}
	}
	if !slices.Contains(tl.Snapshot().Stragglers, slowRank) {
		t.Fatal("slow rank was not flagged")
	}
	for r := int64(0); r < world; r++ {
		if r != slowRank && slices.Contains(tl.Snapshot().Stragglers, r) {
			t.Fatalf("healthy rank %d was flagged", r)
		}
	}
	if got := tl.Snapshot().FlagsTotal; got != 1 {
		t.Fatalf("flag transitions = %d, want exactly 1 (no re-flagging while already flagged)", got)
	}
	snap := tl.Snapshot()
	if len(snap.Stragglers) != 1 || snap.Stragglers[0] != slowRank {
		t.Fatalf("snapshot stragglers = %v, want [%d]", snap.Stragglers, slowRank)
	}
	if snap.Ranks[slowRank].Reason != "step-time" {
		t.Fatalf("reason = %q, want step-time", snap.Ranks[slowRank].Reason)
	}

	// Rank 2 catches up: the flag clears.
	for step := int64(8); step < 10; step++ {
		for r := int64(0); r < world; r++ {
			tl.Ingest(fastSample(r, step))
		}
	}
	if slices.Contains(tl.Snapshot().Stragglers, slowRank) {
		t.Fatal("straggler flag did not clear after catch-up")
	}
	if got := tl.Snapshot().FlagsTotal; got != 1 {
		t.Fatalf("flag transitions after clear = %d, want 1", got)
	}
}

// A single slow step must not flag (strikes reset on a healthy step).
func TestStragglerOneSlowStepIsNoise(t *testing.T) {
	tl := NewClusterTimeline()
	for step := int64(0); step < 10; step++ {
		for r := int64(0); r < 4; r++ {
			if r == 1 && step%3 == 0 { // slow, but never 3 in a row
				tl.Ingest(slowSample(r, step))
			} else {
				tl.Ingest(fastSample(r, step))
			}
		}
	}
	if tl.Snapshot().FlagsTotal != 0 {
		t.Fatal("intermittent slowness was flagged as straggling")
	}
}

// Sub-MinWall steps are jitter, not signal — never flagged even at 10×.
func TestStragglerMinWallFloor(t *testing.T) {
	tl := NewClusterTimeline()
	for step := int64(0); step < 10; step++ {
		for r := int64(0); r < 4; r++ {
			wall := int64(10 * time.Microsecond)
			if r == 0 {
				wall = int64(100 * time.Microsecond)
			}
			tl.Ingest(StepSample{Rank: r, Step: step, WallNs: wall})
		}
	}
	if tl.Snapshot().FlagsTotal != 0 {
		t.Fatal("microsecond-scale jitter was flagged")
	}
}

// A lone rank has no median to compare against — never flagged.
func TestStragglerNeedsTwoRanks(t *testing.T) {
	tl := NewClusterTimeline()
	for step := int64(0); step < 10; step++ {
		tl.Ingest(slowSample(0, step))
	}
	if tl.Snapshot().FlagsTotal != 0 {
		t.Fatal("single-rank timeline flagged itself")
	}
}

func TestStragglerQueueGrowth(t *testing.T) {
	tl := NewClusterTimeline()
	// Two ranks; rank 1's sender queue grows monotonically past the floor.
	depth := int64(4)
	for step := int64(0); step < 8; step++ {
		tl.Ingest(fastSample(0, step))
		depth++
		s := fastSample(1, step)
		s.QueueDepth = depth
		tl.Ingest(s)
	}
	if !slices.Contains(tl.Snapshot().Stragglers, 1) {
		t.Fatal("persistent queue growth was not flagged")
	}
	snap := tl.Snapshot()
	if snap.Ranks[1].Reason != "queue-growth" {
		t.Fatalf("reason = %q, want queue-growth", snap.Ranks[1].Reason)
	}
	if slices.Contains(tl.Snapshot().Stragglers, 0) {
		t.Fatal("healthy rank flagged")
	}

	// Queue drains: flag clears.
	for step := int64(8); step < 10; step++ {
		tl.Ingest(fastSample(0, step))
		s := fastSample(1, step)
		s.QueueDepth = 0
		tl.Ingest(s)
	}
	if slices.Contains(tl.Snapshot().Stragglers, 1) {
		t.Fatal("queue-growth flag did not clear after drain")
	}
}

// A heartbeat's batch lands in order; an empty batch is a no-op.
func TestIngestBatchInOrder(t *testing.T) {
	tl := NewClusterTimeline()
	tl.Ingest(fastSample(3, 41), fastSample(3, 42))
	rs, ok := tl.Snapshot().Ranks[3]
	if !ok || rs.Samples != 2 || rs.Last.Step != 42 {
		t.Fatalf("batch ingest: %+v", rs)
	}
	tl.Ingest()
	if got := tl.Snapshot().Ranks[3].Samples; got != 2 {
		t.Fatalf("empty batch changed sample count to %d", got)
	}
}

func TestStragglerWarnLine(t *testing.T) {
	// The WARN must be a single greppable line.
	var sb strings.Builder
	tl := NewClusterTimeline()
	restore := captureLog(&sb)
	for step := int64(0); step < 3; step++ { // three strikes flag
		tl.Ingest(fastSample(0, step))
		tl.Ingest(fastSample(1, step))
		tl.Ingest(slowSample(2, step))
	}
	restore()
	out := sb.String()
	if !strings.Contains(out, "WARN: obs: rank 2 straggling") {
		t.Fatalf("WARN line missing from log output:\n%s", out)
	}
}
