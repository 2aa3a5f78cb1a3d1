package distrun

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// badSpecs is every way JobSpec.Validate refuses a spec: one field of an
// otherwise runnable job set out of range, and the text the error must carry
// (the field as the payload spells it, and the value).
var badSpecs = []struct {
	name string
	set  func(*JobSpec)
	want string
}{
	{"stages 0", func(s *JobSpec) { s.Stages = 0 }, "stages = 0"},
	{"num_mb 0", func(s *JobSpec) { s.NumMB = 0 }, "num_mb = 0"},
	{"mb_rows 0", func(s *JobSpec) { s.MBRows = 0 }, "mb_rows = 0"},
	{"mb_rows -1", func(s *JobSpec) { s.MBRows = -1 }, "mb_rows = -1"},
	{"width 0", func(s *JobSpec) { s.Width = 0 }, "width = 0"},
	{"steps -1", func(s *JobSpec) { s.Steps = -1 }, "steps = -1"},
	{"data_parallel -2", func(s *JobSpec) { s.DataParallel = -2 }, "data_parallel = -2"},
	{"ckpt_every -1", func(s *JobSpec) { s.CkptEvery = -1 }, "ckpt_every = -1"},
	{"step_sleep_ms -1", func(s *JobSpec) { s.StepSleepMs = -1 }, "step_sleep_ms = -1"},
	{"world overflows", func(s *JobSpec) { s.Stages, s.DataParallel = 1<<40, 1<<40 }, "data_parallel = 1099511627776"},
	{"lr NaN", func(s *JobSpec) { s.LR = math.NaN() }, "lr = NaN"},
	{"lr Inf", func(s *JobSpec) { s.LR = math.Inf(1) }, "lr = +Inf"},
	{"momentum -Inf", func(s *JobSpec) { s.Momentum = math.Inf(-1) }, "momentum = -Inf"},
	{"schedule", func(s *JobSpec) { s.Schedule = "zigzag" }, `schedule = "zigzag"`},
	{"wire dtype", func(s *JobSpec) { s.WireDType = "f16" }, `wire dtype "f16"`},
	{"shape latency", func(s *JobSpec) { s.Shape = &ShapeSpec{LatencyUs: -1} }, "shape.latency_us = -1"},
	{"shape jitter", func(s *JobSpec) { s.Shape = &ShapeSpec{JitterUs: -5} }, "shape.jitter_us = -5"},
	{"shape bandwidth", func(s *JobSpec) { s.Shape = &ShapeSpec{BandwidthGBs: -0.5} }, "shape.bandwidth_gbs = -0.5"},
	{"shape bandwidth NaN", func(s *JobSpec) { s.Shape = &ShapeSpec{BandwidthGBs: math.NaN()} }, "shape.bandwidth_gbs = NaN"},
	{"shape loss > 1", func(s *JobSpec) { s.Shape = &ShapeSpec{LossProb: 1.5} }, "shape.loss_prob = 1.5"},
	{"shape loss < 0", func(s *JobSpec) { s.Shape = &ShapeSpec{LossProb: -0.1} }, "shape.loss_prob = -0.1"},
}

// runnableSpec is the job the bad rows each break in one place.
func runnableSpec() JobSpec {
	return JobSpec{Stages: 2, NumMB: 2, MBRows: 2, Width: 4, Steps: 1, LR: 0.1, Schedule: "1f1b"}
}

// payloadOK reports whether json can carry the spec: NaN and ±Inf cannot
// travel in a payload (Marshal panics), so those rows reach Validate through
// Compile only.
func payloadOK(s JobSpec) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return finite(s.LR) && finite(s.Momentum) && (s.Shape == nil || finite(s.Shape.BandwidthGBs) && finite(s.Shape.LossProb))
}

// TestJobSpecValidate pins that a bad spec fails with an error naming field
// and value at both doors — the payload decoder and the compile every runner
// starts with — instead of panicking in InitModel or training to NaN.
func TestJobSpecValidate(t *testing.T) {
	ts, err := Compile(runnableSpec(), nil)
	if err != nil {
		t.Fatalf("base spec: %v", err)
	}
	ts.Close()
	zeroSteps := runnableSpec()
	zeroSteps.Steps = 0
	if _, err := UnmarshalJobSpec(zeroSteps.Marshal()); err != nil {
		t.Fatalf("steps 0 must stay legal (the benchmark's set-up jobs): %v", err)
	}
	for _, c := range badSpecs {
		spec := runnableSpec()
		c.set(&spec)
		check := func(door string, err error) {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s returned %v, want an error containing %q", c.name, door, err, c.want)
			}
		}
		_, err := Compile(spec, nil)
		check("Compile", err)
		if payloadOK(spec) {
			_, err = UnmarshalJobSpec(spec.Marshal())
			check("UnmarshalJobSpec", err)
		}
	}
}

// TestElasticCoordinatorRefusesABadSpec pins the coordinator's own door: a
// non-finite lr, which the job payload's JSON cannot carry, fails with an
// error naming lr before any rendezvous, instead of panicking while the
// payload is marshalled.
func TestElasticCoordinatorRefusesABadSpec(t *testing.T) {
	spec := runnableSpec()
	spec.Stages, spec.LR = 1, math.NaN()
	opt := ElasticOptions{CtrlAddr: "127.0.0.1:0", Session: dist.SessionOptions{JoinGrace: 10 * time.Millisecond}}
	if _, err := RunElasticCoordinator(spec, opt, 0); err == nil || !strings.Contains(err.Error(), "lr = NaN") {
		t.Fatalf("RunElasticCoordinator returned %v, want an error naming lr = NaN", err)
	}
}

// TestUnmarshalJobSpecRefusesOtherKinds pins that a training job is the only
// payload kind: "train" decodes, and a payload of any other kind — such as the
// collective verification job older coordinators distributed — fails at
// rendezvous with an error naming the kind instead of running as a job.
func TestUnmarshalJobSpecRefusesOtherKinds(t *testing.T) {
	train := runnableSpec()
	train.Kind = KindTrain
	if _, err := UnmarshalJobSpec(train.Marshal()); err != nil {
		t.Fatalf("kind %q refused: %v", KindTrain, err)
	}
	payload := []byte(`{"kind":"collective","world":8,"elems":131072,"iters":3,"seed":1}`)
	if _, err := UnmarshalJobSpec(payload); err == nil || !strings.Contains(err.Error(), `kind "collective"`) {
		t.Fatalf("collective payload: got %v, want an error naming kind \"collective\"", err)
	}
}

// TestUnmarshalJobSpecRefusesSPMD pins that a payload asking for virtual
// SPMD devices — from an older coordinator or a -resume state file, which
// carry the "spmd" key — fails with an error naming it instead of training as
// the one-device job, while 0, 1 and no key at all decode to the same spec.
func TestUnmarshalJobSpecRefusesSPMD(t *testing.T) {
	want, err := UnmarshalJobSpec(runnableSpec().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"0", "1"} {
		if got, err := UnmarshalJobSpec(withSPMD(v)); err != nil || got != want {
			t.Errorf("spmd %s: got %+v, %v; want %+v", v, got, err, want)
		}
	}
	for _, v := range []string{"-1", "2"} {
		if _, err := UnmarshalJobSpec(withSPMD(v)); err == nil || !strings.Contains(err.Error(), "spmd = "+v) {
			t.Errorf("spmd %s: got %v, want an error containing %q", v, err, "spmd = "+v)
		}
	}
}

// withSPMD is the runnable spec's payload carrying the "spmd" key set to v.
func withSPMD(v string) []byte {
	base := runnableSpec().Marshal()
	return append(append(base[:len(base)-1], `,"spmd":`+v...), '}')
}

// corpusPayloads reads the committed seed corpus of FuzzUnmarshalJobSpec:
// file name -> payload.
func corpusPayloads(t *testing.T) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzUnmarshalJobSpec/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	out := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: not a one-argument []byte corpus file: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(payload)
	}
	return out
}

// TestCommittedJobPayloadsAccepted pins that Validate refuses none of the
// jobs the repo runs: the committed corpus is the benchmark's four workload
// shapes (bench/ is a module of its own and cannot be imported here), an
// elastic, checkpointing, shaped int8q job, and a payload from an older
// coordinator carrying the since-deleted "no_hosted_filter" field.
func TestCommittedJobPayloadsAccepted(t *testing.T) {
	for name, payload := range corpusPayloads(t) {
		if _, err := UnmarshalJobSpec(payload); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzUnmarshalJobSpec drives the rendezvous payload decoder — bytes a worker
// takes from the network and a coordinator from a -resume state file — with
// the committed corpus, every finite bad row above and the refused "spmd"
// payloads. It must never panic, and a spec it accepts must be one the
// runners can take: valid, stable through a Marshal round trip, with a world
// of at least one rank, and (when small enough to keep iterations cheap)
// buildable by InitModel and Compile.
func FuzzUnmarshalJobSpec(f *testing.F) {
	for _, c := range badSpecs {
		spec := runnableSpec()
		c.set(&spec)
		if payloadOK(spec) {
			f.Add(spec.Marshal())
		}
	}
	f.Add(withSPMD("-1"))
	f.Add(withSPMD("2"))
	f.Add([]byte(`{"kind":"collective","world":8}`))
	f.Add([]byte(`{"stages":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := UnmarshalJobSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		again, err := UnmarshalJobSpec(spec.Marshal())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip: %+v became %+v (%v)", spec, again, err)
		}
		if spec.World() < 1 {
			t.Fatalf("world %d", spec.World())
		}
		// Cheap means at most 1<<16 parameter elements, 1<<16 batch elements
		// and 1<<8 scheduled (actor, microbatch) pairs. Every factor is >= 1
		// and checked against the limit before it multiplies in, so the
		// products cannot overflow.
		small := func(limit int, factors ...int) bool {
			p := 1
			for _, x := range factors {
				if x > limit {
					return false
				}
				if p *= x; p > limit {
					return false
				}
			}
			return true
		}
		if !small(1<<16, spec.Stages, spec.Width, spec.Width) ||
			!small(1<<16, spec.Replicas(), spec.NumMB, spec.MBRows, spec.Width) ||
			!small(1<<8, spec.Replicas(), spec.Stages, spec.NumMB) {
			return
		}
		InitModel(spec)
		ts, err := Compile(spec, nil)
		if err != nil {
			return // a shape the compiler refuses with an error is not a crash
		}
		ts.Close()
	})
}
