package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	jaxpp "repro"
	"repro/internal/dist"
	"repro/internal/distrun"
	"repro/internal/obs"
)

// Child roles. The parent harness only orchestrates: every measured process
// is a re-exec of the harness binary in one of these roles, and prints one
// JSON line on standard output.
const (
	roleRank  = "rank"  // one rank of a multi-process job
	roleLocal = "local" // the single-process distrun.RunLocal reference
	roleProbe = "probe" // the per-layer probes of one workload
)

// errPortTaken is rank 0 finding the control port gone. dist.Coordinate
// binds its data-plane listener to port 0 before it binds the control
// address, and now and then the kernel hands that listener the very port the
// parent's probe has just released (seen once in about 600 jobs). The child
// exits with exitPortTaken and the parent runs the job again on a new port.
var errPortTaken = errors.New("control port taken between probe and bind")

const exitPortTaken = 75

// procStart is as close to process start as Go code gets: package
// initialisation runs before main.
var procStart = time.Now()

// childOut is what a rank or local child reports. Times are Unix
// nanoseconds, comparable across the processes of one machine.
type childOut struct {
	Rank       int   `json:"rank"`
	StartNs    int64 `json:"start_ns"`     // process entered Go code
	RdvStartNs int64 `json:"rdv_start_ns"` // dist.Coordinate or dist.Join called
	RdvEndNs   int64 `json:"rdv_end_ns"`   // ... returned
	RunStartNs int64 `json:"run_start_ns"` // distrun.Run, RunJob or RunLocal called
	RunEndNs   int64 `json:"run_end_ns"`   // ... returned
	// Frames and Bytes are sess.Transport.SendCount() after the run.
	Frames int64 `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// Mallocs is the runtime.MemStats.Mallocs delta across the run call.
	Mallocs uint64 `json:"mallocs"`
	// Losses, ParamsHash and Profiles come from the Report (rank 0 and the
	// local role only).
	Losses     []float64       `json:"losses,omitempty"`
	ParamsHash string          `json:"params_hash,omitempty"`
	Profiles   []*obs.Snapshot `json:"profiles,omitempty"`
}

func (o *childOut) runSeconds() float64 { return float64(o.RunEndNs-o.RunStartNs) / 1e9 }

// childMain runs one child role and prints its JSON line.
func childMain(role string, rank int, ctrl, specJSON, workloadName string, pc probeConfig) error {
	// A profiled job logs one line per step; dropping them here keeps the
	// traced run from timing a pipe to the parent.
	log.SetOutput(io.Discard)
	var out any
	var err error
	switch role {
	case roleRank:
		out, err = rankMain(rank, ctrl, specJSON)
	case roleLocal:
		out, err = localMain(specJSON)
	case roleProbe:
		out, err = probeMain(workloadName, pc)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rankMain is one rank of a job. Rank 0 takes the path of jaxpp-train
// -distributed (dist.Coordinate, distrun.Run); the others take the path of
// jaxpp-worker (dist.Join, distrun.RunJob).
func rankMain(rank int, ctrl, specJSON string) (*childOut, error) {
	out := &childOut{Rank: rank, StartNs: procStart.UnixNano()}
	// No heartbeat falls inside a job. With the default of one a second, a
	// ping that reaches a worker between its last read and its close makes the
	// kernel reset the control connection, and rank 0 loses the profile it was
	// reading: one traced job in about twelve failed that way.
	opts := dist.SessionOptions{WantRank: rank, HeartbeatInterval: time.Minute}
	var spec distrun.JobSpec
	var sess *dist.Session
	var err error
	if rank == 0 {
		if spec, err = distrun.UnmarshalJobSpec([]byte(specJSON)); err != nil {
			return nil, err
		}
		out.RdvStartNs = time.Now().UnixNano()
		sess, err = dist.Coordinate(ctrl, spec.World(), spec.Marshal(), opts)
	} else {
		out.RdvStartNs = time.Now().UnixNano()
		sess, err = dist.Join(ctrl, opts)
	}
	out.RdvEndNs = time.Now().UnixNano()
	if errors.Is(err, syscall.EADDRINUSE) {
		return nil, errPortTaken
	}
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	var rep *distrun.Report
	m0 := mallocs()
	out.RunStartNs = time.Now().UnixNano()
	if rank == 0 {
		rep, err = distrun.Run(sess, spec)
	} else {
		err = distrun.RunJob(sess)
	}
	out.RunEndNs = time.Now().UnixNano()
	out.Mallocs = mallocs() - m0
	if err != nil {
		return nil, err
	}
	frames, bytes := sess.Transport.SendCount()
	out.Frames, out.Bytes = int64(frames), bytes
	if rep != nil {
		out.fillReport(rep)
	}
	return out, nil
}

// localMain runs the job in this one process on the in-process runtime.
func localMain(specJSON string) (*childOut, error) {
	spec, err := distrun.UnmarshalJobSpec([]byte(specJSON))
	if err != nil {
		return nil, err
	}
	out := &childOut{StartNs: procStart.UnixNano()}
	m0 := mallocs()
	out.RunStartNs = time.Now().UnixNano()
	rep, err := distrun.RunLocal(spec)
	out.RunEndNs = time.Now().UnixNano()
	out.Mallocs = mallocs() - m0
	if err != nil {
		return nil, err
	}
	out.fillReport(rep)
	return out, nil
}

func (o *childOut) fillReport(rep *distrun.Report) {
	o.Losses = rep.StepLosses
	o.ParamsHash = hashParams(rep.FinalParams)
	o.Profiles = rep.Profiles
}

// hashParams is SHA-256 over the IEEE-754 bits of every parameter element
// in order: equal hashes mean bit-identical parameters.
func hashParams(params []*jaxpp.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range params {
		for _, v := range p.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
