// Package timeline renders pipeline schedules as per-actor timelines — the
// Fig. 2 style GPipe vs 1F1B comparison — in ASCII, and exports Chrome
// trace-event JSON for visual inspection. Simulated schedules and executed
// traces share one schema, Event.
package timeline

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/schedule"
)

// Build replays the schedule (schedule.Replay) under unit task durations
// (forward = 1, backward = bwdRatio) and returns one event per task in the
// executed trace's schema: Name F<mb> or B<mb> (microbatches numbered from
// 1), Tid the actor, Ts and Dur in µs of a unit that lasts 1 ms. A schedule
// that deadlocks yields the events up to the stall.
func Build(s *schedule.Schedule, bwdRatio float64) []Event {
	var events []Event
	_ = s.Replay(nil, func(a int, e schedule.Entry, start float64) (float64, error) { // a deadlock keeps the events so far
		dur, name := 1.0, "F"
		if e.Type == schedule.Backward {
			dur, name = bwdRatio, "B"
		}
		end := start + dur
		events = append(events, Event{
			Name: fmt.Sprintf("%s%d", name, e.MB+1), Ph: "X",
			Ts: start * 1e3, Dur: (end - start) * 1e3, Tid: a,
		})
		return end, nil
	})
	return events
}

// RenderASCII draws the schedule as one row per actor. Forward tasks print
// their microbatch number; backward tasks print it as a letter.
func RenderASCII(w io.Writer, s *schedule.Schedule, bwdRatio float64, width int) {
	events := Build(s, bwdRatio)
	makespan := 0.0
	for _, e := range events {
		makespan = max(makespan, (e.Ts+e.Dur)/1e3)
	}
	if makespan == 0 || width <= 0 {
		return
	}
	scale := float64(width) / makespan
	rows := make([][]byte, s.NumActors)
	for a := range rows {
		rows[a] = []byte(strings.Repeat(".", width))
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	for _, e := range events {
		lo := int(e.Ts / 1e3 * scale)
		hi := int((e.Ts + e.Dur) / 1e3 * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := e.Name[len(e.Name)-1]
		if e.Name[0] == 'B' {
			ch += 'a' - '0' // backward: letters; forward: digits
		}
		for x := lo; x < hi; x++ {
			rows[e.Tid][x] = ch
		}
	}
	fmt.Fprintf(w, "%s  (fwd = microbatch digit, bwd = letter; bubble = '.')\n", s.Name)
	for a, row := range rows {
		fmt.Fprintf(w, "actor %d |%s|\n", a, string(row))
	}
	fmt.Fprintf(w, "bubble fraction: %.3f\n", s.BubbleFraction(bwdRatio))
}
