package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// document is the harness's full output, written to <out>/result.json and
// read back by -compare.
type document struct {
	// Quick marks a -quick run, which -compare refuses as a baseline.
	Quick   bool    `json:"quick"`
	RunID   string  `json:"run_id"`
	Machine machine `json:"machine"`
	Seed    uint64  `json:"seed"`
	// Seconds is the stepping budget of all timed repetitions of a workload
	// together; Steps in each workload follows from it.
	Seconds float64 `json:"seconds"`
	// Repetitions counts the timed repetitions of a workload; each starts
	// with one Steps=0 job.
	Repetitions      int              `json:"repetitions"`
	ProbeRepetitions int              `json:"probe_repetitions"`
	ProbeSeconds     float64          `json:"probe_seconds"`
	Start            time.Time        `json:"start"`
	End              time.Time        `json:"end"`
	Workloads        []workloadResult `json:"workloads"`
}

// machine is the shape of the box the numbers were taken on.
type machine struct {
	CPUs              int    `json:"cpus"`
	GomaxprocsPerRank int    `json:"gomaxprocs_per_rank"`
	GoVersion         string `json:"go_version"`
	GitCommit         string `json:"git_commit"`
}

type workloadResult struct {
	Name         string            `json:"name"`
	Why          string            `json:"why"`
	Steps        int               `json:"steps"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Correct      bool              `json:"correct"`
	Errors       []string          `json:"errors,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	TraceFile    string            `json:"trace_file,omitempty"`
	Spans        []span            `json:"spans,omitempty"`
}

// metric is one reported number. An end-to-end value is the median of its
// three best samples (see best), and Spread the quartile spread of all of
// them.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Spread  float64   `json:"spread"`
	Samples []float64 `json:"samples,omitempty"`
	Source  string    `json:"source,omitempty"`
}

// result folds what was measured into the reported metrics. A metric whose
// measurement failed is left out, which makes the workload incorrect.
func (m *measured) result(cfg config) workloadResult {
	r := workloadResult{
		Name: m.w.Name, Why: m.w.Why, Steps: m.steps,
		OpsAttempted: m.attempted, OpsFailed: m.failed,
		Errors: m.errs, TraceFile: m.traceFile, Spans: m.spans,
	}
	if cfg.e2e {
		r.EndToEnd = map[string]metric{}
		samples := m.endToEndValues()
		for _, d := range endToEnd {
			if xs := samples[d.Name]; len(xs) > 0 {
				r.EndToEnd[d.Name] = metric{Value: best(xs, d.Better == "higher"), Unit: d.Unit, Spread: spread(xs), Samples: xs}
			} else {
				r.Errors = append(r.Errors, "no measurement of "+d.Name)
			}
		}
	}
	if cfg.layers {
		r.PerLayer = map[string]metric{}
		values := m.perLayerValues()
		for _, d := range perLayer {
			if x, ok := values[d.Name]; ok {
				r.PerLayer[d.Name] = metric{Value: x, Unit: d.Unit, Source: d.Source}
			} else {
				r.Errors = append(r.Errors, "no measurement of "+d.Name)
			}
		}
	}
	r.Correct = len(r.Errors) == 0 && r.OpsFailed == 0 && r.OpsAttempted > 0
	return r
}

// resultLine is the one JSON object a single-workload run ends its standard
// output with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r resultLine) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		return err.Error() // a NaN or Inf value: not JSON, so the run has no result
	}
	return string(b)
}

// line is the workload's result in the form a single-workload run ends with.
func (r workloadResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: max(r.OpsAttempted, 1), Failed: r.OpsFailed, Metrics: map[string]valueOfUnit{}}
	for _, ms := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		for name, m := range ms {
			l.Metrics[name] = valueOfUnit{Value: m.Value, Unit: m.Unit}
		}
	}
	return l
}

// print writes every metric by name with its unit.
func (r workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s: %d steps per repetition, ops_attempted %d, ops_failed %d, correct %v\n", r.Name, r.Steps, r.OpsAttempted, r.OpsFailed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s spread %.1f%% of %d\n", d.Name, m.Value, m.Unit, 100*m.Spread, len(m.Samples))
		}
	}
	for _, d := range perLayer {
		if m, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s (%s)\n", d.Name, m.Value, m.Unit, m.Source)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &document{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
