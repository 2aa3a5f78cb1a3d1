package main

import (
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/timeline"
)

// A span is one interval the harness itself recorded around a call into the
// program, kept in memory until the run ends. The spans of one harness
// invocation share its run id. Times are Unix nanoseconds.
type span struct {
	RunID   string `json:"run_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Rank    int    `json:"rank"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// harnessTid is the trace lane the harness's own spans take in each rank's
// process, clear of the actor ids obs uses as lanes.
const harnessTid = 99

// jobSpans lays the harness's view over one job: job > spawn, rendezvous,
// run, exit, per rank. spawn is process start (the parent's Start call to
// the child's first Go code), rendezvous the Coordinate or Join call, run
// the distrun.Run or RunJob call, exit from there until the parent saw the
// process gone.
func jobSpans(runID string, j *jobResult) []span {
	var first, last int64 = j.SpawnNs[0], j.ExitNs[0]
	for r := range j.Ranks {
		first, last = min(first, j.SpawnNs[r]), max(last, j.ExitNs[r])
	}
	spans := []span{{RunID: runID, Name: "job", StartNs: first, EndNs: last}}
	for r, o := range j.Ranks {
		for _, s := range []span{
			{Name: "spawn", StartNs: j.SpawnNs[r], EndNs: o.StartNs},
			{Name: "rendezvous", StartNs: o.RdvStartNs, EndNs: o.RdvEndNs},
			{Name: "run", StartNs: o.RunStartNs, EndNs: o.RunEndNs},
			{Name: "exit", StartNs: o.RunEndNs, EndNs: j.ExitNs[r]},
		} {
			s.RunID, s.Parent, s.Rank = runID, "job", r
			spans = append(spans, s)
		}
	}
	return spans
}

// writeTrace merges the harness spans with the obs snapshots every rank
// shipped to rank 0 into one Chrome trace file.
func writeTrace(path string, spans []span, profiles []*obs.Snapshot) error {
	events := timeline.EventsFromSnapshots(profiles)
	for _, s := range spans {
		name := s.Name
		if s.Parent != "" {
			name = s.Parent + "/" + s.Name
		}
		events = append(events, timeline.Event{
			Name: name, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: s.Rank, Tid: harnessTid,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := timeline.WriteChromeTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scopeMsPerStep is the time the named obs scopes took per step, in
// milliseconds, as the mean over the ranks' snapshots.
func scopeMsPerStep(profiles []*obs.Snapshot, steps int, names []string) float64 {
	var total int64
	for _, s := range profiles {
		for _, n := range names {
			if st, ok := s.ScopeByName(n); ok {
				total += st.Total
			}
		}
	}
	return float64(total) / 1e6 / float64(len(profiles)) / float64(steps)
}

// idleFrac is the idle share of the classified leaf-scope time, as the mean
// over ranks.
func idleFrac(profiles []*obs.Snapshot) float64 {
	var sum float64
	for _, s := range profiles {
		c, w, i := s.Breakdown()
		if all := c + w + i; all > 0 {
			sum += float64(i) / float64(all)
		}
	}
	return sum / float64(len(profiles))
}
