package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value for one workload.
type metrics map[string]metric

// metricDef names one metric of the catalogue. Exact marks counts that must
// repeat bit for bit for a fixed seed; -compare reports any change in them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Exact  bool   `json:"-"`
}

// endToEnd are the bounded metrics: defined on every workload, never zero,
// steady enough on a shared two-core sandbox to carry a regression bound,
// printed as the last line of a -trace 0 run. p50_ms is the median latency of
// the workload's primary op family (workloadSpec.primary).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_qps", Unit: "ops/s", Better: "higher"},
	{Name: "resident_mb", Unit: "MB", Better: "lower"},
}

// familyMetrics are the end-to-end metrics that cannot carry a regression
// bound: the tail percentile (its run-to-run spread on the sandbox is wider
// than any bound worth having), the latencies split by op family (a family a
// workload does not run reads 0) and the output quality ratios (legitimately
// 0 or constant). They are measured on the untraced run and reported with the
// per-layer metrics.
var familyMetrics = []metricDef{
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "online_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "online_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "exact_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "online_over_exact_p50", Unit: "ratio", Better: "lower"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "converged_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "certified_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "score_recall_at_k", Unit: "ratio", Better: "higher", Exact: true},
}

// layerMetrics are measured on the traced run, around calls into each
// layer's exported functions. A layer the workload bypasses reads 0.
var layerMetrics = []metricDef{
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.stripe_build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.flat_bytes_per_edge", Unit: "B/edge", Better: "lower", Exact: true},
	{Name: "graph.packed_bytes_per_edge", Unit: "B/edge", Better: "lower", Exact: true},
	{Name: "graph.row_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.row_ns_packed", Unit: "ns", Better: "lower"},
	{Name: "graph.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.frank_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.trank_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.frank_packed_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.trank_packed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.combine_topn_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.exact_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.online_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.veccache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "topk.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "topk.ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "topk.ns_per_touched", Unit: "ns", Better: "lower"},
	{Name: "topk.rounds_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "topk.touched_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "topk.fseen_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "topk.tseen_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "topk.rseen_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "topk.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "topk.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "topk.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "bounds.f_expand_ms", Unit: "ms", Better: "lower"},
	{Name: "bounds.t_expand_ms", Unit: "ms", Better: "lower"},
	{Name: "bounds.t_share", Unit: "ratio", Better: "lower"},
	{Name: "bounds.t_expand_last_over_first", Unit: "ratio", Better: "lower"},
	{Name: "bounds.tseen_per_round", Unit: "count", Better: "lower", Exact: true},
	{Name: "bca.process_us_per_node", Unit: "us", Better: "lower"},
	{Name: "rowserve.lookups_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rowserve.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "rowserve.rows_fetched_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rowserve.rpcs_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "rowserve.session_row_ns", Unit: "ns", Better: "lower"},
	{Name: "rowserve.warm_over_local", Unit: "ratio", Better: "lower"},
	{Name: "rowserve.cold_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "distributed.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "distributed.rpc_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cliutil.middleware_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// perLayer is what a -trace 1 run prints: the family metrics of its untraced
// pass, then the layer metrics of its traced pass.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), familyMetrics...), layerMetrics...)
}

// set records a metric under its catalogue unit; an unknown name is a bug in
// the benchmark, and a non-finite value (an empty sample) reads as 0.
func (m metrics) set(name string, v float64) {
	for _, group := range [][]metricDef{endToEnd, familyMetrics, layerMetrics} {
		for _, d := range group {
			if d.Name == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				m[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
}

// fill gives every catalogue metric of defs a value: the ones the workload
// did not measure read 0 (layer bypassed, op family absent).
func (m metrics) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{Unit: d.Unit}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// bounds returns the regression bound of each bounded end-to-end metric.
func (bf *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(bf.EndToEnd))
	for _, e := range bf.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out
}
