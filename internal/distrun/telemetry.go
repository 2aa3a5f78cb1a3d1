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
// allocation count, and the transport's sender-queue depth, and differences
// them against the previous boundary into one obs.StepSample. The step loop
// hands it to the rank's session (its OnMetrics sink, and on a worker the
// next heartbeat ping) and prints it as the -profile line. Everything here is
// gated on obs.Enabled(): a job that did not arm obs pays one atomic load
// per step.

// Registered (or looked up) once; the wire and pool layers own the actual
// counting, the sampler only reads.
var (
	ctBytesSent  = obs.Counter("wire/bytes_sent")
	ctBytesRecvd = obs.Counter("wire/bytes_recvd")
	ctPoolHit    = obs.Counter("pool/hit")
	ctPoolMiss   = obs.Counter("pool/miss")
	ctSamples    = obs.Counter("telemetry/step_samples")
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
	if obs.Enabled() {
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

// record makes the sample of a completed step; ok is false, at the cost of
// one atomic load, when obs is off.
func (s *stepSampler) record(step int, wall time.Duration) (sample obs.StepSample, ok bool) {
	if !obs.Enabled() {
		return sample, false
	}
	compute, wire, idle := obs.BreakdownNow()
	sent := obs.CounterNow(ctBytesSent)
	recvd := obs.CounterNow(ctBytesRecvd)
	hit := obs.CounterNow(ctPoolHit)
	miss := obs.CounterNow(ctPoolMiss)
	metrics.Read(s.allocSamples)
	allocs := s.allocSamples[0].Value.Uint64()
	sample = obs.StepSample{
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
	}
	s.prevCompute, s.prevWire, s.prevIdle = compute, wire, idle
	s.prevSent, s.prevRecvd = sent, recvd
	s.prevHit, s.prevMiss = hit, miss
	s.prevAllocs = allocs
	obs.Add(ctSamples, 1)
	return sample, true
}

// SetupTelemetry wires one process's slice of the live telemetry plane for
// jaxpp-train and jaxpp-worker: a crash-surviving flight recorder when
// flightDir is set (installed globally, so distrun/dist event sites log into
// it), and an HTTP metrics listener backed by a ClusterTimeline when
// metricsAddr is set. The returned sink — non-nil iff the listener is up — is
// the caller's SessionOptions.OnMetrics: it ingests into the listener's
// timeline the process's own samples, and on the coordinator (worker false)
// every worker's heartbeat-piggybacked ones too, so there it is the cluster
// view. A worker
// serves only its local view, and because it takes its JobSpec from the
// coordinator, a local metricsAddr arms obs directly so that view works even
// when the coordinator did not request telemetry. cleanup tears both down in
// reverse order.
func SetupTelemetry(metricsAddr, flightDir string, worker bool) (onMetrics func(rank int, steps []obs.StepSample), cleanup func(), err error) {
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
		}
		tl := obs.NewClusterTimeline()
		srv, err := obs.StartMetricsServer(metricsAddr, tl)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("metrics listener %s: %v", metricsAddr, err)
		}
		fmt.Printf("%smetrics: http://%s/metrics\n", prefix, srv.Addr())
		closers = append(closers, func() { srv.Close() })
		onMetrics = func(_ int, steps []obs.StepSample) { tl.Ingest(steps...) }
	}
	return onMetrics, cleanup, nil
}
