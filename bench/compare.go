package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // the second side is worse than the first by more than the bound
	verdictUnresolved = "unresolved" // a side's own spread is wider than the bound, so the bound decides nothing
)

// A side of a comparison is the result files of one or more runs of one
// commit. With several runs a metric's value is the median of the runs'
// values and its spread the quartile spread across the runs; with one run
// they are that run's own median and the spread of its samples.
type side []*document

func readSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		d, err := readDocument(path)
		if err != nil {
			return nil, err
		}
		s = append(s, d)
	}
	return s, nil
}

// workloadNames lists the workloads a side's files hold, in the order of
// first appearance.
func (s side) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, d := range s {
		for _, w := range d.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				names = append(names, w.Name)
			}
		}
	}
	return names
}

func (s side) metric(workload, name string) (metric, bool) {
	var found []metric
	for _, d := range s {
		for _, w := range d.Workloads {
			if m, ok := w.EndToEnd[name]; ok && w.Name == workload {
				found = append(found, m)
			}
		}
	}
	switch len(found) {
	case 0:
		return metric{}, false
	case 1:
		return found[0], true
	}
	xs := make([]float64, len(found))
	for i, m := range found {
		xs[i] = m.Value
	}
	return metric{Value: median(xs), Unit: found[0].Unit, Spread: spread(xs), Samples: xs}, true
}

// verdict compares one metric's medians a (the base) and b under its bound.
func verdict(d metricDef, a, b metric) string {
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed
	case max(a.Spread, b.Spread) > d.Bound:
		return verdictUnresolved
	}
	return verdictOK
}

// compare prints, for each workload and end-to-end metric, both medians, the
// ratio with its base, the spread, and a verdict. It reports whether every
// row is ok.
func compare(w io.Writer, base, next side) (bool, error) {
	for _, d := range base {
		if d.Quick {
			return false, fmt.Errorf("the baseline holds a -quick run: too few steps and one repetition, no basis for a comparison")
		}
	}
	for _, s := range []side{base, next} {
		d := s[0]
		fmt.Fprintf(w, "%d run(s): commit %s, seed %d, %d cpus, GOMAXPROCS %d per rank\n", len(s), d.Machine.GitCommit, d.Seed, d.Machine.CPUs, d.Machine.GomaxprocsPerRank)
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %22s %8s %6s  %s\n", "workload", "metric", "base", "next", "next/base", "spread", "bound", "verdict")
	allOK := true
	for _, name := range base.workloadNames() {
		for _, d := range endToEnd {
			a, aok := base.metric(name, d.Name)
			b, bok := next.metric(name, d.Name)
			if !aok || !bok {
				fmt.Fprintf(w, "%-12s %-20s missing\n", name, d.Name)
				allOK = false
				continue
			}
			v := verdict(d, a, b)
			allOK = allOK && v == verdictOK
			ratio := fmt.Sprintf("%.4f of %.6g", b.Value/a.Value, a.Value)
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %22s %7.1f%% %5.0f%%  %s\n",
				name, d.Name, a.Value, b.Value, ratio, 100*max(a.Spread, b.Spread), 100*d.Bound, v)
		}
	}
	return allOK, nil
}
