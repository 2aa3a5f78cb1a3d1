package schedule

import "fmt"

// inputs returns the tasks e consumes, the dependency rule of every
// schedule: F(mb, s) reads F(mb, s−1); B(mb, s) reads F(mb, s) and
// B(mb, s+1). The first stage's forward reads none and the last stage's
// backward reads only its forward.
func (s *Schedule) inputs(e Entry) (in [2]Entry, n int) {
	if e.Type == Forward {
		if e.Stage == 0 {
			return in, 0
		}
		in[0] = Entry{MB: e.MB, Stage: e.Stage - 1, Type: Forward}
		return in, 1
	}
	in[0] = Entry{MB: e.MB, Stage: e.Stage, Type: Forward}
	if e.Stage == s.NumStages-1 {
		return in, 1
	}
	in[1] = Entry{MB: e.MB, Stage: e.Stage + 1, Type: Backward}
	return in, 2
}

// Replay runs the per-actor task lists cooperatively, the one execution
// model of a schedule: the compiler emits its instructions in this order and
// the simulator and the timeline time it. Each sweep visits the actors in ID
// order; an actor runs its head task once every input task has run, and a
// task that runs is visible to the later actors of the same sweep. run gets
// the task's start — the later of the actor's previous end and the latest
// input end plus lag(input, task) — and returns its end. A nil lag adds
// nothing. An error from run stops the replay and is returned; so is a sweep
// that runs nothing while tasks remain, a deadlock.
func (s *Schedule) Replay(lag func(from, to Entry) float64, run func(actor int, e Entry, start float64) (end float64, err error)) error {
	ends := map[Entry]float64{}
	heads := make([]int, len(s.Actors))
	clock := make([]float64, len(s.Actors))
	left := 0
	for _, list := range s.Actors {
		left += len(list)
	}
	for left > 0 {
		ran := false
	actors:
		for a, list := range s.Actors {
			if heads[a] == len(list) {
				continue
			}
			e := list[heads[a]]
			ready := 0.0
			ins, n := s.inputs(e)
			for i, in := range ins[:n] {
				t, ok := ends[in]
				if !ok {
					continue actors
				}
				if lag != nil {
					t += lag(in, e)
				}
				if i == 0 || t > ready {
					ready = t
				}
			}
			start := clock[a]
			if ready > start {
				start = ready
			}
			end, err := run(a, e, start)
			if err != nil {
				return err
			}
			ends[e] = end
			clock[a] = end
			heads[a]++
			left--
			ran = true
		}
		if !ran {
			return fmt.Errorf("schedule %s: task lists deadlock under data dependencies", s.Name)
		}
	}
	return nil
}
