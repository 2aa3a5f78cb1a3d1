package schedule

import (
	"fmt"
)

// Validate checks the structural invariants every legal gradient-accumulation
// schedule must satisfy:
//
//  0. at least one actor, stage and microbatch, one owner per stage and one
//     task list per actor, every owner an actor of the schedule,
//  1. every (mb, stage) forward and backward task appears exactly once,
//  2. the backward of a stage runs on the same actor as its forward (§3.3's
//     co-location assumption),
//  3. the task lists are executable without deadlock: Replay, the
//     cooperative run every consumer of a schedule follows, drains them.
func (s *Schedule) Validate() error {
	if err := atLeastOne("actors stages microbatches", s.NumActors, s.NumStages, s.NumMB); err != nil {
		return err
	}
	if len(s.StageActor) != s.NumStages || len(s.Actors) != s.NumActors {
		return fmt.Errorf("schedule %s: %d stage owners and %d task lists for %d stages on %d actors",
			s.Name, len(s.StageActor), len(s.Actors), s.NumStages, s.NumActors)
	}
	for st, a := range s.StageActor {
		if a < 0 || a >= s.NumActors {
			return fmt.Errorf("schedule %s: stage %d owned by actor %d, out of range", s.Name, st, a)
		}
	}
	seen := map[Entry]int{}
	for a, list := range s.Actors {
		for _, e := range list {
			if e.MB < 0 || e.MB >= s.NumMB {
				return fmt.Errorf("schedule %s: actor %d: microbatch %d out of range", s.Name, a, e.MB)
			}
			if e.Stage < 0 || e.Stage >= s.NumStages {
				return fmt.Errorf("schedule %s: actor %d: stage %d out of range", s.Name, a, e.Stage)
			}
			if prev, dup := seen[e]; dup {
				return fmt.Errorf("schedule %s: task %s on actors %d and %d", s.Name, e, prev, a)
			}
			seen[e] = a
			if s.StageActor[e.Stage] != a {
				return fmt.Errorf("schedule %s: %s on actor %d but stage %d belongs to actor %d", s.Name, e, a, e.Stage, s.StageActor[e.Stage])
			}
		}
	}
	for mb := 0; mb < s.NumMB; mb++ {
		for st := 0; st < s.NumStages; st++ {
			for _, ty := range []TaskType{Forward, Backward} {
				if _, ok := seen[Entry{MB: mb, Stage: st, Type: ty}]; !ok {
					return fmt.Errorf("schedule %s: missing %s for mb %d stage %d", s.Name, ty, mb, st)
				}
			}
		}
	}
	return s.Replay(nil, func(int, Entry, float64) (float64, error) { return 0, nil })
}

// PeakInFlight returns, per actor, the maximum number of microbatch forward
// activations held at once over the replay: each forward adds one, the
// matching backward releases it. This is the activation-memory proxy behind
// the GPipe-vs-1F1B comparison (§2.2.1, Fig. 10). A schedule that deadlocks
// reports the peaks up to the stall; Validate rejects it.
func (s *Schedule) PeakInFlight() []int {
	peaks := make([]int, s.NumActors)
	live := make([]int, s.NumActors)
	_ = s.Replay(nil, func(a int, e Entry, _ float64) (float64, error) { // a deadlock keeps the peaks so far
		if e.Type == Forward {
			live[a]++
			peaks[a] = max(peaks[a], live[a])
		} else {
			live[a]--
		}
		return 0, nil
	})
	return peaks
}

// BubbleFraction replays the schedule under unit task times (forward = 1,
// backward = bwdRatio) and returns the fraction of total actor-time spent
// idle. A schedule that deadlocks is fully idle: 1.
func (s *Schedule) BubbleFraction(bwdRatio float64) float64 {
	now := make([]float64, s.NumActors)
	busy := make([]float64, s.NumActors)
	err := s.Replay(nil, func(a int, e Entry, start float64) (float64, error) {
		dur := 1.0
		if e.Type == Backward {
			dur = bwdRatio
		}
		busy[a] += dur
		now[a] = start + dur
		return now[a], nil
	})
	if err != nil {
		return 1
	}
	makespan := 0.0
	for a := range now {
		if now[a] > makespan {
			makespan = now[a]
		}
	}
	totalBusy := 0.0
	for _, b := range busy {
		totalBusy += b
	}
	if makespan == 0 {
		return 0
	}
	return 1 - totalBusy/(makespan*float64(s.NumActors))
}
