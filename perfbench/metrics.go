package main

import (
	"math"
	"sort"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run without tracing reports in its result
// line, in the order BENCHMARK.json lists them. Set-up and job cost are
// gated as process CPU time, and as the least of several samples: on a
// shared virtual machine the hypervisor doubles wall time for minutes at a
// time, and other tenants slow the CPUs, which only ever adds time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_s", "s"},
	{"comm_bytes", "B/job"},
	{"rss_peak_mb", "MB"},
}

// endToEndPrinted are printed by a run without tracing but left out of the
// result line: the wall-time metrics (unsteady on a shared machine), p90
// (needs 100 jobs, which pr-bulk does not reach) and fail_ratio (0 when
// all is well; the result line's failed count carries it).
var endToEndPrinted = []metricDef{
	{"setup_wall_s", "s"},
	{"job_s", "s"},
	{"job_s.p90", "s"},
	{"mteps", "Medges/s"},
	{"e2e_s", "s"},
	{"fail_ratio", "ratio"},
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"partition.s", "s"},
	{"partition.replication", "proxies/node"},
	{"partition.edge_imbalance", "max/mean"},
	{"gluon.new_s", "s"},
	{"gluon.memo_proxies", "count"},
	{"gluon.sync_s", "s"},
	{"gluon.sync_self_s", "s"},
	{"gluon.value_bytes", "B/job"},
	{"gluon.meta_bytes", "B/job"},
	{"gluon.msgs", "count"},
	{"gluon.msgs.empty", "count"},
	{"gluon.msgs.dense", "count"},
	{"gluon.msgs.bitvec", "count"},
	{"gluon.msgs.indices", "count"},
	{"gluon.empty_share", "ratio"},
	{"comm.send_s", "s"},
	{"comm.recv_wait_s", "s"},
	{"comm.collective_wait_s", "s"},
	{"comm.wire_msgs", "count"},
	{"comm.wire_bytes", "B/job"},
	{"comm.dial_s", "s"},
	{"dsys.rounds", "count"},
	{"dsys.init_s", "s"},
	{"dsys.finalize_s", "s"},
	{"dsys.barrier_s", "s"},
	{"dsys.self_s", "s"},
	{"dsys.imbalance", "max/mean"},
	{"engine.compute_s", "s"},
	{"engine.frontier", "count"},
	{"engine.updated", "count"},
	{"engine.yield", "ratio"},
	{"proc.allocs_per_job", "count"},
	{"proc.alloc_mb_per_job", "MB"},
	{"proc.gc_per_job", "count"},
	{"ref.s", "s"},
	{"bench.trace_overhead", "ratio"},
}

// stat is one measured metric with the number of samples behind it.
type stat struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}
