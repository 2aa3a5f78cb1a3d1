package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the root of
// the repository declares the same names, units, directions and bounds; a
// test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: the share of the baseline a metric may get worse by
	Source string  // per-layer only: P (probe), T (traced run), J (timed job runs), count (exact)
	// Scopes, on a T metric, names the obs scopes whose totals per step, mean
	// over ranks, are the metric.
	Scopes []string
}

// The end-to-end metrics: what someone training with this system sees.
var endToEnd = []metricDef{
	{Name: "steps_per_s", Unit: "steps/s", Better: "higher", Bound: 0.25},
	{Name: "local_steps_per_s", Unit: "steps/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_step", Unit: "bytes", Better: "lower", Bound: 0.01},
}

// The per-layer metrics, named <module>.<metric>. They are reported, never
// gated.
var perLayer = []metricDef{
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher", Source: "P"},
	{Name: "tensor.add_gbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "interp.run_us", Unit: "us", Better: "lower", Source: "P"},
	{Name: "interp.overhead_pct", Unit: "%", Better: "lower", Source: "P"},
	{Name: "runtime.allocs_per_step", Unit: "count", Better: "lower", Source: "J"},
	{Name: "runtime.local_allocs_per_step", Unit: "count", Better: "lower", Source: "J"},
	{Name: "runtime.store_peak_mb", Unit: "MiB", Better: "lower", Source: "P"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower", Source: "J"},
	{Name: "runtime.idle_frac", Unit: "fraction", Better: "lower", Source: "T"},
	{Name: "schedule.bubble_frac", Unit: "fraction", Better: "lower", Source: "count"},
	{Name: "dist.encode_gbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "dist.decode_gbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "dist.link_gbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "dist.link_rtt_us", Unit: "us", Better: "lower", Source: "P"},
	{Name: "dist.mailbox_ns", Unit: "ns", Better: "lower", Source: "P"},
	{Name: "dist.frames_per_step", Unit: "count", Better: "lower", Source: "count"},
	{Name: "dist.rendezvous_ms", Unit: "ms", Better: "lower", Source: "J"},
	{Name: "dist.encode_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"wire/encode"}},
	{Name: "dist.decode_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"wire/decode"}},
	{Name: "collective.allreduce_busgbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "collective.rsv_agv_busgbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "collective.allgather_small_us", Unit: "us", Better: "lower", Source: "P"},
	{Name: "collective.ring_efficiency", Unit: "fraction", Better: "higher", Source: "P"},
	{Name: "collective.send_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"coll/send"}},
	{Name: "collective.wait_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"coll/wait"}},
	{Name: "collective.reduce_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"coll/reduce"}},
	{Name: "distrun.step_actor_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/actor"}},
	{Name: "distrun.loss_gather_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/loss_gather"}},
	{Name: "distrun.dp_sync_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/dp_sync"}},
	{Name: "distrun.grad_exchange_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/grad_allreduce", "step/grad_reducescatter", "step/param_allgatherv"}},
	{Name: "distrun.update_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/sgd"}},
	{Name: "distrun.quant_ef_ms", Unit: "ms", Better: "lower", Source: "T", Scopes: []string{"step/quant_ef"}},
	{Name: "distrun.compile_ms", Unit: "ms", Better: "lower", Source: "P"},
	{Name: "distrun.loss_rel_err", Unit: "fraction", Better: "lower", Source: "J"},
	{Name: "model.update_gbs", Unit: "GB/s", Better: "higher", Source: "P"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower", Source: "P"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Source: "J"},
}
