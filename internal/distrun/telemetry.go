package distrun

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Per-step telemetry sampling: at each step boundary the sampler reads the
// live obs aggregates (allocation-free BreakdownNow/CounterNow), the runtime
// allocation count, and the transport's sender-queue depth, differences them
// against the previous boundary, and publishes one obs.StepSample into the
// process-global ring — where the control-plane heartbeat picks it up for
// streaming to the coordinator. Everything here is gated on
// obs.StepsEnabled(): an unarmed job pays one atomic load per step.

// Registered (or looked up) once; the wire and pool layers own the actual
// counting, the sampler only reads.
var (
	ctBytesSent  = obs.Counter("wire/bytes_sent")
	ctBytesRecvd = obs.Counter("wire/bytes_recvd")
	ctPoolHit    = obs.Counter("pool/hit")
	ctPoolMiss   = obs.Counter("pool/miss")
)

// stepSampler differences cumulative aggregates into per-step deltas.
type stepSampler struct {
	rank int
	qd   func() int // the transport's deepest sender queue

	prevCompute, prevWire, prevIdle int64
	prevSent, prevRecvd             int64
	prevHit, prevMiss               int64
	prevAllocs                      uint64
	allocSamples                    []metrics.Sample
}

// newStepSampler primes the baselines so the first step's deltas do not
// absorb bootstrap-time traffic.
func newStepSampler(rank int, queueDepth func() int) *stepSampler {
	s := &stepSampler{rank: rank, qd: queueDepth}
	s.allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	if obs.StepsEnabled() {
		s.prime()
	}
	return s
}

func (s *stepSampler) prime() {
	s.prevCompute, s.prevWire, s.prevIdle = obs.BreakdownNow()
	s.prevSent = obs.CounterNow(ctBytesSent)
	s.prevRecvd = obs.CounterNow(ctBytesRecvd)
	s.prevHit = obs.CounterNow(ctPoolHit)
	s.prevMiss = obs.CounterNow(ctPoolMiss)
	metrics.Read(s.allocSamples)
	s.prevAllocs = s.allocSamples[0].Value.Uint64()
}

// record publishes one sample for a completed step. No-op (one atomic load)
// when the telemetry plane is off.
func (s *stepSampler) record(step int, wall time.Duration) {
	if !obs.StepsEnabled() {
		return
	}
	compute, wire, idle := obs.BreakdownNow()
	sent := obs.CounterNow(ctBytesSent)
	recvd := obs.CounterNow(ctBytesRecvd)
	hit := obs.CounterNow(ctPoolHit)
	miss := obs.CounterNow(ctPoolMiss)
	metrics.Read(s.allocSamples)
	allocs := s.allocSamples[0].Value.Uint64()
	obs.RecordStep(obs.StepSample{
		Rank:       int64(s.rank),
		Step:       int64(step),
		WallNs:     int64(wall),
		ComputeNs:  compute - s.prevCompute,
		WireNs:     wire - s.prevWire,
		IdleNs:     idle - s.prevIdle,
		BytesSent:  sent - s.prevSent,
		BytesRecvd: recvd - s.prevRecvd,
		QueueDepth: int64(s.qd()),
		PoolHit:    hit - s.prevHit,
		PoolMiss:   miss - s.prevMiss,
		Allocs:     int64(allocs - s.prevAllocs),
	})
	s.prevCompute, s.prevWire, s.prevIdle = compute, wire, idle
	s.prevSent, s.prevRecvd = sent, recvd
	s.prevHit, s.prevMiss = hit, miss
	s.prevAllocs = allocs
}

// beginTelemetry arms the per-step telemetry plane (and the obs registry it
// reads through) for a job's duration, returning the teardown that restores
// prior gate state. Composes with beginProfiling: both may arm the registry,
// each restores only what it changed.
func beginTelemetry() (restore func()) {
	wasSteps := obs.StepsEnabled()
	wasObs := obs.Enabled()
	obs.EnableSteps()
	obs.Enable()
	return func() {
		if !wasSteps {
			obs.DisableSteps()
		}
		if !wasObs {
			obs.Disable()
		}
	}
}

// SetupTelemetry wires one process's slice of the live telemetry plane for
// jaxpp-train and jaxpp-worker: a crash-surviving flight recorder when
// flightDir is set (installed globally, so distrun/dist event sites log into
// it), and an HTTP metrics listener backed by a ClusterTimeline when
// metricsAddr is set; the process's own step ring drains into it through
// SyncLocal on every scrape. On the coordinator (worker false) the returned
// timeline — non-nil iff the listener is up — is also what
// SessionOptions.OnMetrics feeds heartbeat-piggybacked worker samples into, so
// it is the cluster view. A worker serves only its local view, and because it
// takes its JobSpec from the coordinator, a local metricsAddr arms the step
// gates directly so that view works even when the coordinator did not request
// telemetry. cleanup tears both down in reverse order.
func SetupTelemetry(metricsAddr, flightDir string, worker bool) (tl *obs.ClusterTimeline, cleanup func(), err error) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if flightDir != "" {
		rec, err := flight.Open(flightDir, flight.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("flight recorder %s: %v", flightDir, err)
		}
		flight.Install(rec)
		closers = append(closers, func() { rec.Close() })
	}
	if metricsAddr != "" {
		prefix := ""
		if worker {
			prefix = "jaxpp-worker: "
			obs.Enable()
			obs.EnableSteps()
		}
		tl = obs.NewClusterTimeline()
		srv, err := obs.StartMetricsServer(metricsAddr, tl)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("metrics listener %s: %v", metricsAddr, err)
		}
		fmt.Printf("%smetrics: http://%s/metrics\n", prefix, srv.Addr())
		closers = append(closers, func() { srv.Close() })
	}
	return tl, cleanup, nil
}
