package schedule

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestAnalyticsPinned pins PeakInFlight and BubbleFraction to the last bit
// for each generator at 4 actors and 8 microbatches: a change to how the
// lists are walked that moves a start time moves these.
func TestAnalyticsPinned(t *testing.T) {
	interleaved := func(r int) *Schedule {
		s, err := Interleaved1F1B(4, 8, r)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		s             *Schedule
		peaks         []int
		bfAt2, bfAt23 float64
	}{
		{GPipe(4, 8), []int{8, 8, 8, 8}, 0.2727272727272727, 0.2727272727272727},
		{OneFOneB(4, 8), []int{4, 3, 2, 1}, 0.2727272727272727, 0.2727272727272726},
		{interleaved(2), []int{11, 9, 7, 5}, 0.1578947368421053, 0.1578947368421052},
		{interleaved(3), []int{15, 13, 11, 9}, 0.11111111111111116, 0.11111111111111105},
	} {
		if got := c.s.PeakInFlight(); !slices.Equal(got, c.peaks) {
			t.Errorf("%s: PeakInFlight %v, want %v", c.s.Name, got, c.peaks)
		}
		if got := c.s.BubbleFraction(2); got != c.bfAt2 {
			t.Errorf("%s: BubbleFraction(2) = %v, want %v", c.s.Name, got, c.bfAt2)
		}
		if got := c.s.BubbleFraction(2.3); got != c.bfAt23 {
			t.Errorf("%s: BubbleFraction(2.3) = %v, want %v", c.s.Name, got, c.bfAt23)
		}
	}
}

// visit records each task Replay runs as "actor:F<mb>" or "actor:B<mb>"
// with its start, lasting 1 for a forward and 2 for a backward.
func visit(t *testing.T, s *Schedule, lag func(from, to Entry) float64) (order []string, starts []float64) {
	t.Helper()
	err := s.Replay(lag, func(a int, e Entry, start float64) (float64, error) {
		name, dur := "F", 1.0
		if e.Type == Backward {
			name, dur = "B", 2.0
		}
		order = append(order, fmt.Sprintf("%d:%s%d", a, name, e.MB))
		starts = append(starts, start)
		return start + dur, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return order, starts
}

// TestReplayVisitOrder: each sweep visits actor 0 then actor 1, one head task
// each, and a task run earlier in a sweep unblocks a later actor in the same
// sweep. Actor 0 waits one sweep for B2 of actor 1.
func TestReplayVisitOrder(t *testing.T) {
	got, _ := visit(t, OneFOneB(2, 3), nil)
	want := []string{
		"0:F0", "1:F0",
		"0:F1", "1:B0",
		"0:B0", "1:F1",
		"0:F2", "1:B1",
		"0:B1", "1:F2",
		"1:B2",
		"0:B2",
	}
	if !slices.Equal(got, want) {
		t.Errorf("visit order %v, want %v", got, want)
	}
}

// TestReplayStart: a task starts at the later of its actor's previous end and
// its latest input's end plus lag, and lag applies to every input edge —
// the same-actor edge from F(mb, s) to B(mb, s) too.
func TestReplayStart(t *testing.T) {
	s := GPipe(2, 2) // actor 0: F0 F1 B0 B1, stage 0; actor 1 likewise, stage 1
	for _, c := range []struct {
		name  string
		lag   float64
		order []string
		start []float64
	}{
		// a1 F1: clock and input tie at 2; a1 B0: its clock (3) binds;
		// a0 B0: B0 of stage 1 (ends 5) binds over the clock (2).
		{"no lag", 0,
			[]string{"0:F0", "1:F0", "0:F1", "1:F1", "1:B0", "0:B0", "1:B1", "0:B1"},
			[]float64{0, 1, 1, 2, 3, 5, 5, 7}},
		// a1 F0 starts at 1+3; a1 B0 at its own F0's end 5 plus 3, not at
		// its clock 6; a1 B1: the clock 10 binds over F1's 6+3.
		{"lag 3", 3,
			[]string{"0:F0", "1:F0", "0:F1", "1:F1", "1:B0", "0:B0", "1:B1", "0:B1"},
			[]float64{0, 4, 1, 5, 8, 13, 10, 15}},
	} {
		edges := map[[2]Entry]bool{}
		lag := func(from, to Entry) float64 {
			edges[[2]Entry{from, to}] = true
			return c.lag
		}
		order, starts := visit(t, s, lag)
		if !slices.Equal(order, c.order) || !slices.Equal(starts, c.start) {
			t.Errorf("%s: ran %v at %v, want %v at %v", c.name, order, starts, c.order, c.start)
		}
		// Stage 1's forwards read stage 0's (2), every backward reads its
		// forward (4), and stage 0's backwards read stage 1's (2).
		if len(edges) != 8 {
			t.Errorf("%s: lag saw %d distinct edges, want 8: %v", c.name, len(edges), edges)
		}
	}
}

func TestReplayStopsAtRunError(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	err := OneFOneB(2, 3).Replay(nil, func(int, Entry, float64) (float64, error) {
		if calls++; calls == 3 {
			return 0, stop
		}
		return 0, nil
	})
	if !errors.Is(err, stop) || calls != 3 {
		t.Errorf("Replay = %v after %d runs, want run's error after 3", err, calls)
	}
}

func TestReplayNamesADeadlockedSchedule(t *testing.T) {
	// Actor 0 waits for a backward before producing the forward actor 1
	// needs.
	s := &Schedule{Name: "stuck", NumActors: 2, NumStages: 2, NumMB: 1, StageActor: []int{0, 1},
		Actors: [][]Entry{
			{{MB: 0, Stage: 0, Type: Backward}, {MB: 0, Stage: 0, Type: Forward}},
			{{MB: 0, Stage: 1, Type: Forward}, {MB: 0, Stage: 1, Type: Backward}},
		}}
	runs := 0
	err := s.Replay(nil, func(int, Entry, float64) (float64, error) { runs++; return 0, nil })
	if err == nil || !strings.Contains(err.Error(), "schedule stuck:") || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Replay of a deadlocked schedule = %v, want a deadlock error naming it", err)
	}
	if runs != 0 {
		t.Errorf("ran %d tasks of a schedule whose every head waits", runs)
	}
}
