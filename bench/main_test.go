package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// reexecEnv makes the test binary behave as the harness: the quick run and
// every child it spawns are re-execs of this binary.
const reexecEnv = "JAXPP_BENCH_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestMedianAndSpread(t *testing.T) {
	for _, c := range []struct {
		xs             []float64
		median, spread float64
	}{
		// spreads as Python's statistics.quantiles(xs, n=4) gives them
		{nil, 0, 0},
		{[]float64{4}, 4, 0},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{1, 2, 3, 10}, 2.5, 2.8},
		{[]float64{5, 7}, 6, 0.5},
		{[]float64{4, 8, 15, 16, 23, 42, 4, 9, 1, 7}, 8.5, 1.6176470588235294},
		{[]float64{0, 0, 0}, 0, 0},
	} {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		if got := spread(c.xs); math.Abs(got-c.spread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.spread)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	spread(xs)
	best(xs, true)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("a statistic reordered its argument")
	}
}

func TestBestIsTheMiddleOfTheThreeBest(t *testing.T) {
	xs := []float64{4.1, 2.0, 4.4, 3.1, 9.9, 4.2, 2.7}
	if got := best(xs, true); got != 4.4 {
		t.Errorf("best of %v, higher is better: %v, want 4.4", xs, got)
	}
	if got := best(xs, false); got != 2.7 {
		t.Errorf("best of %v, lower is better: %v, want 2.7", xs, got)
	}
	if got := best([]float64{5, 7}, true); got != 6 {
		t.Errorf("best of two: %v, want their median", got)
	}
	if got := best(nil, true); got != 0 {
		t.Errorf("best of nothing: %v", got)
	}
}

func TestStepsScaleByOneFactor(t *testing.T) {
	for _, w := range workloads {
		if got := stepsFor(w, fullRepSeconds); got != w.Spec.Steps {
			t.Errorf("%s: %d steps at the full budget, want %d", w.Name, got, w.Spec.Steps)
		}
		if got, want := stepsFor(w, 1), w.Spec.Steps/10; got != want {
			t.Errorf("%s: %d steps at a tenth, want %d", w.Name, got, want)
		}
		if w.Spec.World() != world {
			t.Errorf("%s: world %d, want %d", w.Name, w.Spec.World(), world)
		}
	}
}

func TestCheckJob(t *testing.T) {
	falling := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 2 - float64(i)/float64(n)
		}
		return xs
	}
	dense, _ := findWorkload("dp2x2-dense")
	lossy, _ := findWorkload("dp2x2-zq")
	ref := &childOut{Losses: falling(30), ParamsHash: "a"}
	if _, err := checkJob(dense, &childOut{Losses: falling(30), ParamsHash: "a"}, ref); err != nil {
		t.Errorf("identical run rejected: %v", err)
	}
	if _, err := checkJob(dense, &childOut{Losses: falling(30), ParamsHash: "b"}, ref); err == nil {
		t.Error("differing parameters accepted on a lossless workload")
	}
	near := falling(30)
	near[7] *= 1.01
	if _, err := checkJob(dense, &childOut{Losses: near, ParamsHash: "a"}, ref); err == nil {
		t.Error("differing losses accepted on a lossless workload")
	}
	if rel, err := checkJob(lossy, &childOut{Losses: near, ParamsHash: "b"}, ref); err != nil || math.Abs(rel-0.01) > 1e-9 {
		t.Errorf("1%% loss error on the lossy workload: rel %v, err %v", rel, err)
	}
	near[7] *= 1.1
	if _, err := checkJob(lossy, &childOut{Losses: near, ParamsHash: "b"}, ref); err == nil {
		t.Error("11% loss error accepted on the lossy workload")
	}
	flat := falling(30)
	for i := 15; i < 30; i++ {
		flat[i] = flat[15]
	}
	if _, err := checkJob(dense, &childOut{Losses: flat, ParamsHash: "a"}, &childOut{Losses: flat, ParamsHash: "a"}); err == nil {
		t.Error("stalled training accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(quick bool, stepsPerS, spread float64) side {
		e2e := map[string]metric{}
		for _, d := range endToEnd {
			e2e[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		e2e["steps_per_s"] = metric{Value: stepsPerS, Unit: "steps/s", Spread: spread}
		return side{{Quick: quick, Workloads: []workloadResult{{Name: "pp4-small", EndToEnd: e2e}}}}
	}
	bound := endToEnd[0].Bound
	for _, c := range []struct {
		next    side
		verdict string
		ok      bool
	}{
		{doc(false, 100, 0.02), verdictOK, true},
		{doc(true, 100*(1-bound/2), 0.02), verdictOK, true}, // a quick run may be compared against a full baseline
		{doc(false, 100*(1-bound)-1, 0.02), verdictRegressed, false},
		{doc(false, 100, bound+0.01), verdictUnresolved, false},
	} {
		var out bytes.Buffer
		ok, err := compare(&out, doc(false, 100, 0.02), c.next)
		if err != nil || ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("compare: ok %v err %v, want ok %v and verdict %q in\n%s", ok, err, c.ok, c.verdict, out.String())
		}
	}
	if _, err := compare(&bytes.Buffer{}, doc(true, 100, 0), doc(false, 100, 0)); err == nil {
		t.Error("a -quick run was accepted as the baseline")
	}
	// Several runs a side: the median of the runs' values, and their quartile
	// spread in place of each run's own.
	runs := func(values ...float64) (s side) {
		for _, v := range values {
			s = append(s, doc(false, v, 0.9)...)
		}
		return s
	}
	var out bytes.Buffer
	if ok, err := compare(&out, runs(99, 100, 101), runs(96, 97, 98)); err != nil || !ok || !strings.Contains(out.String(), "0.9700 of 100") {
		t.Errorf("three runs a side: ok %v err %v\n%s", ok, err, out.String())
	}
	// setup_s is lower-is-better: a larger value is the regression.
	d := endToEnd[2]
	if d.Name != "setup_s" || verdict(d, metric{Value: 1}, metric{Value: 1.5}) != verdictRegressed || verdict(d, metric{Value: 1}, metric{Value: 0.5}) != verdictOK {
		t.Error("setup_s direction")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository to
// the tables the harness reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, declared []jsonMetric, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			j := declared[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, j, d)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s name %q", kind, d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestQuickRun runs the harness end to end, -quick on pp4-small, and asserts
// that its output is complete.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-process jobs")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cmd := exec.Command(exe, "-quick", "-workload", "pp4-small", "-src", ".", "-out", out)
	cmd.Env = append(os.Environ(), reexecEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("quick run: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}

	doc, err := readDocument(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Quick {
		t.Error("output of a -quick run is not stamped quick")
	}
	if doc.Machine.CPUs < 1 || doc.Machine.GomaxprocsPerRank < 1 || doc.Machine.GoVersion == "" || doc.Machine.GitCommit == "" ||
		doc.Repetitions != 1 || doc.Seed != 1 || doc.Start.IsZero() || !doc.End.After(doc.Start) {
		t.Errorf("machine shape and provenance incomplete: %+v", doc)
	}
	if len(doc.Workloads) != 1 {
		t.Fatalf("%d workloads in the output, want 1", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		def, _ := findWorkload(w.Name)
		if !w.Correct || w.OpsFailed != 0 || w.OpsAttempted != 2*w.Steps || w.Steps != def.Spec.Steps/10 {
			t.Errorf("%s: correct %v, %d of %d ops failed, %d steps, errors %v", w.Name, w.Correct, w.OpsFailed, w.OpsAttempted, w.Steps, w.Errors)
		}
		for _, d := range endToEnd {
			if m, ok := w.EndToEnd[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s: %+v", w.Name, d.Name, m)
			}
		}
		for _, d := range perLayer {
			if m, ok := w.PerLayer[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s: %+v", w.Name, d.Name, m)
			}
		}
		for _, ms := range []map[string]metric{w.EndToEnd, w.PerLayer} {
			for name := range ms {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
			}
		}
		if len(w.Spans) != 1+4*world {
			t.Errorf("%s: %d harness spans, want job and spawn, rendezvous, run, exit per rank", w.Name, len(w.Spans))
		}
		for _, s := range w.Spans {
			if s.RunID != doc.RunID || s.EndNs < s.StartNs {
				t.Errorf("%s: span %+v", w.Name, s)
			}
		}
		trace, err := os.ReadFile(w.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"job/run"`, `"step/actor"`, `"wire/encode"`} {
			if !bytes.Contains(trace, []byte(want)) {
				t.Errorf("%s: trace file has no %s event", w.Name, want)
			}
		}
	}

	// The last line of a single-workload run is the result object.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("result line: %+v", last)
	}
}
