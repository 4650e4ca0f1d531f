package main

import (
	"ensemble/internal/opt"
)

// metricDef names one reported metric. End-to-end metrics carry the
// bound by which a change may worsen their median before it counts as a
// regression; per-layer metrics carry the end-to-end metric they should
// move and the workload on which it should show.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"-"`
}

// endToEnd are measured on every workload with tracing off. Throughput
// and set-up time are per second of process CPU time (see cost).
var endToEnd = []metricDef{
	{Name: "msgs_per_cpu_s", Unit: "msgs/s", Better: "higher", Bound: 0.25},
	{Name: "vlat_p50_us", Unit: "us", Better: "lower", Bound: 0.05},
	{Name: "vlat_p99_us", Unit: "us", Better: "lower", Bound: 0.2},
	{Name: "bytes_per_msg", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are measured by the traced run. Moves records, before any
// optimisation is measured against them, which end-to-end metric each
// should move and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"core.cast_ns.p50", "ns", "lower", 0, "msgs_per_cpu_s on alltoall8"},
		{"core.cast_ns.p99", "ns", "lower", 0, "msgs_per_cpu_s on alltoall8"},
		{"core.recv_ns.p50", "ns", "lower", 0, "msgs_per_cpu_s on scale64 and alltoall8"},
		{"core.recv_ns.p99", "ns", "lower", 0, "msgs_per_cpu_s on scale64 and alltoall8"},
		{"core.tick_ns.p50", "ns", "lower", 0, "msgs_per_cpu_s on scale64 (stability gossip runs on ticks)"},
		{"core.tick_ns.p99", "ns", "lower", 0, "msgs_per_cpu_s on scale64"},
		{"core.busy_frac", "frac", "lower", 0, "msgs_per_cpu_s on all three (share of wall time inside members)"},
		{"core.recv_per_msg", "count", "lower", 0, "msgs_per_cpu_s on alltoall8 and scale64"},

		{"opt.build_ms", "ms", "lower", 0, "setup_s on alltoall8 and lossy_mixed8; no change on scale64"},
		{"opt.hit_frac", "frac", "higher", 0, "msgs_per_cpu_s and vlat_* on alltoall8"},
		{"opt.interp_frac", "frac", "lower", 0, "msgs_per_cpu_s on alltoall8 and lossy_mixed8"},
	}
	for p := opt.PathID(0); p < opt.NumPaths; p++ {
		better := "higher"
		if p == opt.PathFullStack {
			better = "lower"
		}
		m = append(m,
			metricDef{"opt.path." + p.String() + ".hits", "count", better, 0, "msgs_per_cpu_s and vlat_* on alltoall8"},
			metricDef{"opt.path." + p.String() + ".misses", "count", "lower", 0, "msgs_per_cpu_s on alltoall8"})
	}
	for _, b := range cpuBuckets {
		moves := "msgs_per_cpu_s on all three"
		switch b {
		case "layers.collect":
			moves = "msgs_per_cpu_s on scale64"
		case "layers.mnak":
			moves = "msgs_per_cpu_s and live_heap_mb on alltoall8; must not regress on lossy_mixed8"
		case "layers.total":
			moves = "msgs_per_cpu_s and vlat_* on alltoall8"
		case "layers.pt2pt", "netsim":
			moves = "msgs_per_cpu_s on lossy_mixed8"
		case "layers.membership":
			moves = "membership.view_change_ms on scale64"
		case "gc", "event":
			moves = "msgs_per_cpu_s and live_heap_mb on all three"
		}
		m = append(m, metricDef{"cpu." + b, "frac", "lower", 0, moves})
	}
	m = append(m, []metricDef{
		{"transport.flush_ns.p50", "ns", "lower", 0, "msgs_per_cpu_s on alltoall8"},
		{"transport.flush_ns.p99", "ns", "lower", 0, "msgs_per_cpu_s on alltoall8"},
		{"transport.subs_per_frame", "count", "higher", 0, "bytes_per_msg on alltoall8"},
		{"transport.frames_per_msg", "count", "lower", 0, "bytes_per_msg on alltoall8"},
		{"transport.delta_frac", "frac", "higher", 0, "bytes_per_msg on alltoall8"},
		{"transport.flush.size", "count", "lower", 0, "bytes_per_msg on alltoall8"},
		{"transport.flush.entry_end", "count", "lower", 0, "bytes_per_msg on alltoall8"},
		{"transport.flush.barrier", "count", "lower", 0, "bytes_per_msg and vlat_p99_us on alltoall8"},
		{"transport.flush.held", "count", "lower", 0, "vlat_p99_us on alltoall8 (the adaptive-flush trade)"},
		{"transport.hold_us.p99", "us", "lower", 0, "vlat_p99_us on alltoall8 (the adaptive-flush trade)"},

		{"netsim.sched_frac", "frac", "lower", 0, "msgs_per_cpu_s on lossy_mixed8"},
		{"netsim.send_ns.p50", "ns", "lower", 0, "msgs_per_cpu_s on lossy_mixed8"},
		{"netsim.pkts_per_msg", "count", "lower", 0, "msgs_per_cpu_s on lossy_mixed8"},
		{"netsim.dropped", "count", "lower", 0, "msgs_per_cpu_s on lossy_mixed8"},
		{"netsim.duplicated", "count", "lower", 0, "msgs_per_cpu_s on lossy_mixed8"},

		{"event.allocs_per_msg", "count", "lower", 0, "msgs_per_cpu_s and live_heap_mb on all three"},
		{"event.pool_news_per_msg", "count", "lower", 0, "msgs_per_cpu_s and live_heap_mb on all three"},

		{"membership.view_change_ms", "ms", "lower", 0, "the scale64 view change (moved here: it has no value on the other workloads)"},
		{"membership.view_pkts", "count", "lower", 0, "membership.view_change_ms on scale64"},
		{"membership.view_bytes", "B", "lower", 0, "membership.view_change_ms on scale64"},
		{"collect.stable_lag_ms", "ms", "lower", 0, "live_heap_mb on all three (each runs collect)"},

		{"trace.overhead_frac", "frac", "lower", 0, "none: the cost of this benchmark's tracing"},
	}...)
	return m
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds a metric map restricted to defs, in defs' units.
func metricSet(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
