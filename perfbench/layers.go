package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a run with --trace 0 reports, on every
// workload. BENCHMARK.json declares the same list (a test checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"alloc_kb_per_row", "KB/row"},
	{"peak_live_heap_mb", "MB"},
	{"p50_ms", "ms"},
}

// perLayer lists the metrics a run with --trace 1 reports, on every
// workload; a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// core: stage spans from the FitEvent stream, and stage yields.
	{"core.mine_s", "s"},
	{"core.score_s", "s"},
	{"core.generate_s", "s"},
	{"core.iv_s", "s"},
	{"core.pearson_s", "s"},
	{"core.rank_s", "s"},
	{"core.self_s", "s"},
	{"core.generated", "count"},
	{"core.iv_keep_ratio", "fraction"},
	{"core.pearson_keep_ratio", "fraction"},
	{"core.inmem_fit_s", "s"},
	// shard: the sharded engine's source consumption.
	{"shard.passes", "count"},
	{"shard.rows_streamed", "rows"},
	{"shard.pass_s", "s"},
	{"shard.self_s", "s"},
	{"shard.rows_skipped_ratio", "fraction"},
	{"shard.retries", "count"},
	// colstore: the wrapped chunk source and the set-up write.
	{"colstore.next_s", "s"},
	{"colstore.chunks", "count"},
	{"colstore.read_mb", "MB"},
	{"colstore.write_s", "s"},
	// dist: both ends of every worker connection.
	{"dist.sent_mb", "MB"},
	{"dist.recv_mb", "MB"},
	{"dist.partial_mb", "MB"},
	{"dist.frames", "count"},
	{"dist.coord_wait_s", "s"},
	{"dist.worker_idle_s", "s"},
	{"dist.worker_send_s", "s"},
	{"dist.pass_skew", "ratio"},
	{"dist.self_s", "s"},
	// kernel probes on the workload's own base columns.
	{"sketch.sort_ns_per_value", "ns/value"},
	{"stats.cutfind_ns_per_value", "ns/value"},
	{"gbdt.train_s", "s"},
	// serve: the HTTP surface, /stats, and direct calls on the served data.
	{"serve.client_p99_ms", "ms"},
	{"serve.max_rps", "req/s"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.http_json_ms", "ms"},
	{"serve.cache_hit_ratio", "fraction"},
	{"serve.transform_ms", "ms"},
	{"serve.predict_ms", "ms"},
	{"serve.swap_ms", "ms"},
	{"serve.generator_lag_ms", "ms"},
	{"serve.backlog_max", "count"},
	{"serve.queue_ms", "ms"},
	// Go runtime over the traced operation.
	{"runtime.gc_cpu_s", "s"},
	{"runtime.cpu_util", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"runtime.mallocs", "count"},
	// tracing cost: traced ÷ untraced.
	{"trace.overhead", "ratio"},
}

// layerValues collects per-layer values by name; report fills in every
// perLayer metric, zero where the workload set none.
type layerValues map[string]float64

func (lv layerValues) report(r *result) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, lv[m.name])
	}
}

// runtimeLayer records the Go runtime counters of a traced operation.
func (lv layerValues) runtimeLayer(d delta) {
	lv["runtime.gc_cpu_s"] = d.gcCPU
	lv["runtime.cpu_util"] = d.cpuUtil
	lv["runtime.gc_cycles"] = d.gcCycles
	lv["runtime.mallocs"] = d.mallocs
}

// selfTimes records each layer's self time from the spans.
func (lv layerValues) selfTimes(self selfMap) {
	for _, layer := range []string{"core", "shard", "dist"} {
		lv[layer+".self_s"] = self[layer]
	}
}
