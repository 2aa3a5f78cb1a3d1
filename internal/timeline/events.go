package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Executed-trace support: the same Chrome trace-event export and ASCII
// per-actor rendering the simulated schedules get, fed by real obs spans
// instead of unit-time simulation. Pid is the process rank, Tid the actor (or
// rank-local recorder) lane, so a merged multi-process trace reads as one
// machine-wide step timeline.

// Event is one span — executed, or a simulated schedule's task — in Chrome
// trace-event terms (ts/dur in µs).
type Event struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// EventsFromSnapshots flattens per-rank obs snapshots into trace events. Each
// snapshot's Rank becomes the event pid; span start times are wall-anchored
// by obs, so snapshots recorded by different processes on one machine align
// without adjustment.
func EventsFromSnapshots(snaps []*obs.Snapshot) []Event {
	var events []Event
	for _, s := range snaps {
		for _, sp := range s.Spans {
			events = append(events, Event{
				Name: sp.Scope, Ph: "X",
				Ts: sp.StartUs, Dur: sp.DurUs,
				Pid: s.Rank, Tid: sp.Tid,
			})
		}
	}
	return events
}

// WriteChromeTraceEvents writes events — executed, or a simulated schedule's
// from Build — as a Chrome trace-event JSON document (chrome://tracing /
// Perfetto compatible).
func WriteChromeTraceEvents(w io.Writer, events []Event) error {
	if events == nil {
		events = []Event{} // an empty trace is still valid JSON
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// ReadChromeTrace parses a Chrome trace-event JSON document back into events
// (complete "X" spans only), accepting both the object form this package
// writes and the bare-array form other tools emit.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		var arr []Event
		if err2 := json.Unmarshal(data, &arr); err2 != nil {
			return nil, fmt.Errorf("timeline: not a Chrome trace document: %w", err)
		}
		doc.TraceEvents = arr
	}
	events := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.Ph == "" || e.Ph == "X" {
			events = append(events, e)
		}
	}
	return events, nil
}

// eventGlyph maps a span's scope name to its timeline character: segment
// compute prints the segment digit (matching the simulated renderer's
// microbatch digits), collective/wire activity prints '~', the DP-sync
// epilogue 's', accumulate/add '+', and receive-wait prints the same '.'
// bubble the simulator uses for idle.
func eventGlyph(name string) byte {
	switch {
	case strings.HasPrefix(name, "seg/"):
		return name[len(name)-1]
	case name == "actor/recv", name == "coll/wait":
		return '.'
	case strings.HasPrefix(name, "coll/"), strings.HasPrefix(name, "wire/"):
		return '~'
	case name == "step/dp_sync":
		return 's'
	case name == "actor/accum":
		return '+'
	}
	return '-'
}

// RenderEventsASCII draws executed events as one row per (rank, actor) lane —
// the executed counterpart of RenderASCII, so real bubbles line up under the
// analytic Fig. 2 schedule. Envelope scopes (step/*) other than dp_sync are
// skipped: they would paint over the leaf activity inside them.
func RenderEventsASCII(w io.Writer, events []Event, width int) {
	if len(events) == 0 || width <= 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	type lane struct{ pid, tid int }
	var (
		lanes []lane
		seen  = map[lane]bool{}
		t0    = events[0].Ts
		t1    = events[0].Ts + events[0].Dur
		kept  []Event
	)
	for _, e := range events {
		if strings.HasPrefix(e.Name, "step/") && e.Name != "step/dp_sync" {
			continue
		}
		kept = append(kept, e)
		if e.Ts < t0 {
			t0 = e.Ts
		}
		if e.Ts+e.Dur > t1 {
			t1 = e.Ts + e.Dur
		}
		l := lane{e.Pid, e.Tid}
		if !seen[l] {
			seen[l] = true
			lanes = append(lanes, l)
		}
	}
	if len(kept) == 0 || t1 <= t0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	rowOf := make(map[lane]int, len(lanes))
	rows := make([][]byte, len(lanes))
	for i, l := range lanes {
		rowOf[l] = i
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	scale := float64(width) / (t1 - t0)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Ts < kept[j].Ts })
	for _, e := range kept {
		lo := int((e.Ts - t0) * scale)
		hi := int((e.Ts - t0 + e.Dur) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		row := rows[rowOf[lane{e.Pid, e.Tid}]]
		ch := eventGlyph(e.Name)
		for x := lo; x < hi; x++ {
			row[x] = ch
		}
	}
	fmt.Fprintf(w, "executed trace  (%.3fms span; seg digit = compute, '~' = wire, '.' = wait, 's' = dp sync)\n", (t1-t0)/1e3)
	for i, l := range lanes {
		fmt.Fprintf(w, "rank %d actor %d |%s|\n", l.pid, l.tid, string(rows[i]))
	}
}
