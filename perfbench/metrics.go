package main

import "fmt"

// metricDef names one metric and its unit. The lists below are the
// contract with BENCHMARK.json (catalog_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"release_kd_s", "s"},
	{"release_tds_s", "s"},
	{"release_fulldomain_s", "s"},
	{"snapshot_mb", "MB"},
	{"query_qps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports it as 0.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit string, suffixes ...string) {
		if len(suffixes) == 0 {
			out = append(out, metricDef{name, unit})
		}
		for _, s := range suffixes {
			out = append(out, metricDef{name + "." + s, unit})
		}
	}
	alg := []string{"kd", "tds", "fulldomain"}
	add("perturb.phase1_ms", "ms")
	add("generalize.phase2_ms", "ms", alg...)
	add("sampling.phase3_ms", "ms", alg...)
	add("query.index_build_ms", "ms", alg...)
	add("snapshot.encode_ms", "ms", alg...)
	add("alloc_mb", "MB", alg...)
	add("gc.count", "count", alg...)
	add("generalize.lattice.nodes_evaluated", "count")
	add("pg.groups", "count", alg...)
	add("net.roundtrip_us", "us", replyKinds...)
	add("serve.handler_us", "us", replyKinds...)
	add("query.answer_us", "us", classNames[:]...)
	add("serve.cache.hit_ratio", "ratio")
	add("serve.cache.evictions", "count")
	add("query.path_share", "ratio", pathNames...)
	add("serve.reload_ms", "ms")
	add("coord.handler_us", "us")
	add("shard.handler_us", "us")
	add("shard.group_us", "us")
	add("coord.fanout_overhead_us", "us")
	add("coord.subrequests_per_query", "count")
	add("coord.hedge.won_ratio", "ratio")
	add("dp.charge_ns", "ns")
	add("dp.noise_ns", "ns")
	add("alloc_kb_per_query", "KB", "serve", "coord")
	add("trace.overhead_pct", "%")
	add("trace.publish.phase_sum_ratio", "ratio")
	add("trace.publish.write_sum_ratio", "ratio")
	return out
}()

// reported selects the metrics of the run's mode, in catalog order. An
// end-to-end metric the workload failed to measure is an error; a per-layer
// metric the workload does not exercise is reported as 0.
func (r *run) reported() (map[string]Metric, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && r.trace:
			m = Metric{Value: 0, Unit: d.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}
