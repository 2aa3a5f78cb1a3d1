package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// MetricsServer exposes the telemetry plane over HTTP:
//
//	/metrics        Prometheus text format (per-rank step gauges + cluster
//	                aggregates + obs counter/scope passthrough)
//	/healthz        liveness: 200 "ok" while the process serves
//	/debug/cluster  the full ClusterSnapshot as JSON
//
// Both jaxpp-train (cluster view) and jaxpp-worker (local view) serve the
// same server; the worker simply has a single rank in its timeline.
type MetricsServer struct {
	tl  *ClusterTimeline
	srv *http.Server
	ln  net.Listener
}

// StartMetricsServer listens on addr (e.g. ":9090") and serves until Close.
// The returned server is already accepting; the caller's run loop never
// blocks on it. The timeline may be shared with heartbeat ingest goroutines.
func StartMetricsServer(addr string, tl *ClusterTimeline) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	ms := &MetricsServer{tl: tl, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ms.handleMetrics)
	mux.HandleFunc("/healthz", ms.handleHealthz)
	mux.HandleFunc("/debug/cluster", ms.handleCluster)
	ms.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Addr returns the bound address (useful when addr had port 0).
func (ms *MetricsServer) Addr() string { return ms.ln.Addr().String() }

// Close stops accepting and closes the listener.
func (ms *MetricsServer) Close() error { return ms.srv.Close() }

// handleHealthz answers a liveness probe: a process that serves is alive.
func (ms *MetricsServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (ms *MetricsServer) handleCluster(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := ms.tl.Snapshot()
	// JSON object keys must be strings; re-key the rank map.
	out := struct {
		TakenNs    int64                `json:"taken_ns"`
		Ranks      map[string]RankState `json:"ranks"`
		Stragglers []int64              `json:"stragglers"`
		FlagsTotal int64                `json:"straggler_flags_total"`
	}{snap.TakenNs, make(map[string]RankState, len(snap.Ranks)), snap.Stragglers, snap.FlagsTotal}
	for r, rs := range snap.Ranks {
		out.Ranks[fmt.Sprint(r)] = rs
	}
	enc.Encode(out)
}

// handleMetrics renders Prometheus text exposition format v0.0.4. This is a
// cold path (a scrape every few seconds); clarity over allocation-thrift.
func (ms *MetricsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := ms.tl.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	ranks := make([]int64, 0, len(snap.Ranks))
	for r := range snap.Ranks {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	emit := func(name, help, typ string, val func(rs RankState) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, r := range ranks {
			fmt.Fprintf(&b, "%s{rank=\"%d\"} %g\n", name, r, val(snap.Ranks[r]))
		}
	}

	emit("jaxpp_step_total", "Training steps completed per rank.", "counter",
		func(rs RankState) float64 { return float64(rs.Last.Step + 1) })
	emit("jaxpp_step_wall_ms", "Latest step wall time per rank.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.WallNs) / 1e6 })
	emit("jaxpp_step_compute_ms", "Compute time in the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.ComputeNs) / 1e6 })
	emit("jaxpp_step_wire_ms", "Wire (serialize+send) time in the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.WireNs) / 1e6 })
	emit("jaxpp_step_idle_ms", "Idle (blocked receive) time in the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.IdleNs) / 1e6 })
	emit("jaxpp_step_bytes_sent", "Bytes sent during the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.BytesSent) })
	emit("jaxpp_step_bytes_recvd", "Bytes received during the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.BytesRecvd) })
	emit("jaxpp_send_queue_depth", "Sender mailbox depth at the latest step boundary.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.QueueDepth) })
	emit("jaxpp_pool_hit_rate_pct", "Scratch-pool hit rate over the latest step.", "gauge",
		func(rs RankState) float64 { return rs.Last.PoolHitPct() })
	emit("jaxpp_step_allocs", "Heap allocations during the latest step.", "gauge",
		func(rs RankState) float64 { return float64(rs.Last.Allocs) })
	emit("jaxpp_straggler", "1 while the rank is flagged as a straggler.", "gauge",
		func(rs RankState) float64 {
			if rs.Straggler {
				return 1
			}
			return 0
		})

	fmt.Fprintf(&b, "# HELP jaxpp_straggler_flags_total Straggler flag transitions since start.\n# TYPE jaxpp_straggler_flags_total counter\njaxpp_straggler_flags_total %d\n", snap.FlagsTotal)
	fmt.Fprintf(&b, "# HELP jaxpp_ranks Ranks reporting telemetry.\n# TYPE jaxpp_ranks gauge\njaxpp_ranks %d\n", len(ranks))
	fmt.Fprintf(&b, "# HELP jaxpp_telemetry_samples_total Step samples this process recorded.\n# TYPE jaxpp_telemetry_samples_total counter\njaxpp_telemetry_samples_total %d\n", CounterNow(cStepSamples))

	// Registry passthrough: every named counter and scope aggregate, so
	// one scrape carries the whole profiling surface.
	names, counts := CounterNames()
	if len(names) > 0 {
		fmt.Fprint(&b, "# HELP jaxpp_obs_counter Named obs counter values.\n# TYPE jaxpp_obs_counter counter\n")
		for i, n := range names {
			fmt.Fprintf(&b, "jaxpp_obs_counter{name=%q} %d\n", n, counts[i])
		}
	}
	sNames, totals := ScopeTotals()
	if len(sNames) > 0 {
		fmt.Fprint(&b, "# HELP jaxpp_obs_scope_ns_total Cumulative nanoseconds per obs scope.\n# TYPE jaxpp_obs_scope_ns_total counter\n")
		for i, n := range sNames {
			fmt.Fprintf(&b, "jaxpp_obs_scope_ns_total{name=%q} %d\n", n, totals[i])
		}
	}
	w.Write([]byte(b.String()))
}
