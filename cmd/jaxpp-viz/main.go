// Command jaxpp-viz renders pipeline schedules as ASCII timelines (the
// paper's Fig. 2: GPipe vs 1F1B) or Chrome trace JSON. With -exec it instead
// renders an executed trace (jaxpp-train -trace-out) as the same per-actor
// timeline, optionally validating that every rank contributed spans.
//
// With -flight it renders a flight-recorder directory (jaxpp-train/-worker
// -flight-dir) as a chronological post-mortem event timeline — readable even
// after a SIGKILL mid-write, since replay stops at the first torn frame.
//
//	jaxpp-viz -actors 3 -mb 6 -schedule 1f1b
//	jaxpp-viz -schedule interleaved -repeat 2 -chrome trace.json
//	jaxpp-viz -exec trace.json -expect-ranks 4
//	jaxpp-viz -flight ./flight-coord
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/obs/flight"
	"repro/internal/schedule"
	"repro/internal/timeline"
)

func main() {
	actors := flag.Int("actors", 3, "number of pipeline actors")
	mb := flag.Int("mb", 6, "number of microbatches")
	sched := flag.String("schedule", "all", "gpipe, 1f1b, interleaved, or all")
	repeat := flag.Int("repeat", 2, "circular repeat for interleaved")
	bwd := flag.Float64("bwd", 2, "backward/forward duration ratio")
	width := flag.Int("width", 96, "terminal columns for the timeline")
	chrome := flag.String("chrome", "", "write Chrome trace JSON to this file")
	execTrace := flag.String("exec", "", "render an executed Chrome trace (jaxpp-train -trace-out) instead of a simulated schedule")
	expectRanks := flag.Int("expect-ranks", 0, "with -exec: require spans from every rank 0..N-1 (exit 1 otherwise)")
	flightDir := flag.String("flight", "", "render a flight-recorder directory (jaxpp-train/-worker -flight-dir) as a post-mortem event timeline")
	flag.Parse()

	if *flightDir != "" {
		if err := renderFlight(*flightDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *execTrace != "" {
		if err := renderExec(*execTrace, *expectRanks, *width); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := checkScheduleFlags(*actors, *mb, *repeat, *width, *bwd); err != nil {
		log.Fatal(err)
	}
	build := func(name string) *schedule.Schedule {
		switch name {
		case "gpipe":
			return schedule.GPipe(*actors, *mb)
		case "1f1b":
			return schedule.OneFOneB(*actors, *mb)
		case "interleaved":
			s, err := schedule.Interleaved1F1B(*actors, *mb, *repeat)
			if err != nil {
				log.Fatal(err)
			}
			return s
		default:
			log.Fatalf("unknown schedule %q", name)
			return nil
		}
	}

	names := []string{*sched}
	if *sched == "all" {
		names = []string{"gpipe", "1f1b", "interleaved"}
	}
	for _, n := range names {
		s := build(n)
		if err := s.Validate(); err != nil {
			log.Fatal(err)
		}
		timeline.RenderASCII(os.Stdout, s, *bwd, *width)
		fmt.Println()
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				log.Fatal(err)
			}
			if err := timeline.WriteChromeTraceEvents(f, timeline.Build(s, *bwd)); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote Chrome trace to %s\n", *chrome)
		}
	}
}

// checkScheduleFlags refuses the sizes a simulated schedule cannot be built
// or drawn from: actors, microbatches, repeat or width below 1, and a
// backward/forward ratio that is not a finite positive number.
func checkScheduleFlags(actors, mb, repeat, width int, bwd float64) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"actors", actors}, {"mb", mb}, {"repeat", repeat}, {"width", width}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: want at least 1", f.name, f.v)
		}
	}
	if !(bwd > 0) || math.IsInf(bwd, 1) {
		return fmt.Errorf("-bwd %v: want a finite ratio above 0", bwd)
	}
	return nil
}

// renderExec loads an executed Chrome trace and draws the per-actor ASCII
// timeline. With expectRanks > 0 it also validates the trace covers every
// rank 0..N-1.
func renderExec(path string, expectRanks, width int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := timeline.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	timeline.RenderEventsASCII(os.Stdout, events, width)
	if expectRanks > 0 {
		ranks := map[int]bool{}
		for _, e := range events {
			ranks[e.Pid] = true
		}
		for r := 0; r < expectRanks; r++ {
			if !ranks[r] {
				return fmt.Errorf("executed trace %s: no spans from rank %d (want ranks 0..%d)", path, r, expectRanks-1)
			}
		}
		fmt.Printf("trace OK: %d spans covering all %d ranks\n", len(events), expectRanks)
	}
	return nil
}

// renderFlight replays a flight-recorder directory as one chronological line
// per event, timestamped relative to the first event. Torn or corrupt tail
// frames (a recorder killed mid-write) are silently dropped by the decoder,
// so the timeline always renders whatever was durably committed.
func renderFlight(dir string) error {
	events, err := flight.Replay(dir)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		fmt.Printf("flight %s: no events\n", dir)
		return nil
	}
	base := events[0].WallNs
	fmt.Printf("flight %s: %d events\n", dir, len(events))
	for _, ev := range events {
		rank := "-"
		if ev.Rank >= 0 {
			rank = fmt.Sprintf("%d", ev.Rank)
		}
		step := "-"
		if ev.Step >= 0 {
			step = fmt.Sprintf("%d", ev.Step)
		}
		line := fmt.Sprintf("+%9.3fs  rank %-3s step %-5s %-14s", float64(ev.WallNs-base)/1e9, rank, step, ev.Kind)
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Println(line)
	}
	return nil
}
