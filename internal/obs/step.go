package obs

// StepSample is one rank's telemetry record for one completed training step.
// The step loop's sampler builds it from the live registry aggregates when
// the registry is on, and hands it to the rank's dist session, which passes
// it to its local sink and, on a worker, ships it on the next heartbeat.
// Durations are nanoseconds; byte/alloc/pool fields are deltas over the step.
type StepSample struct {
	Rank       int64 `json:"rank"`
	Step       int64 `json:"step"`
	WallNs     int64 `json:"wall_ns"`
	ComputeNs  int64 `json:"compute_ns"`
	WireNs     int64 `json:"wire_ns"`
	IdleNs     int64 `json:"idle_ns"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecvd int64 `json:"bytes_recvd"`
	QueueDepth int64 `json:"queue_depth"`
	PoolHit    int64 `json:"pool_hit"`
	PoolMiss   int64 `json:"pool_miss"`
	Allocs     int64 `json:"allocs"`
}

// PoolHitPct is the step's scratch-pool hit rate (0 when the step touched
// the pool not at all).
func (s *StepSample) PoolHitPct() float64 {
	if s.PoolHit+s.PoolMiss == 0 {
		return 0
	}
	return 100 * float64(s.PoolHit) / float64(s.PoolHit+s.PoolMiss)
}

// cStepSamples counts the samples this process's sampler made; /metrics
// serves it as jaxpp_telemetry_samples_total.
var cStepSamples = Counter("telemetry/step_samples")
