package main

// The metric catalogue: every metric the benchmark reports, with its unit
// and direction. BENCHMARK.json lists the same metrics
// (TestBenchmarkJSONMatchesCatalogue keeps the two in step); README.md says
// which end-to-end metric each per-layer one should move, on which
// workload.

import "strings"

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd are the timed-run metrics (--trace 0).
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "req/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "heap_retained_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// modules are the layers self time is attributed to (span name → module in
// moduleOf).
var modules = []string{"server", "cache", "core", "uml", "service", "mapping", "lint", "pathdisc", "depend", "explain", "whatif"}

// perLayer are the traced-run metrics (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.serve_us.p50.warm", "us", "lower"},
		{"server.serve_us.p50.cache", "us", "lower"},
		{"server.serve_us.p50.miss", "us", "lower"},
		{"http.overhead_us.p50", "us", "lower"},
		{"server.decode_us.p50", "us", "lower"},
		{"server.encode_us.p50", "us", "lower"},
		{"server.warm_hit_ratio", "ratio", "higher"},
		{"server.encodes_per_req", "count/req", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"cache.evictions_per_kreq", "count/kreq", "lower"},
		{"cache.invalidations_per_kreq", "count/kreq", "lower"},
		{"cache.shared_per_kreq", "count/kreq", "higher"},
		{"core.pool_hit_ratio", "ratio", "higher"},
		{"core.pool_acquire_us.p50", "us", "lower"},
		{"core.cachekey_us.p50", "us", "lower"},
		{"core.generate_us.p50", "us", "lower"},
		{"step5.self_share", "ratio", "lower"},
		{"step6.self_share", "ratio", "lower"},
		{"step7.self_share", "ratio", "lower"},
		{"step8.self_share", "ratio", "lower"},
		{"uml.decode_us.p50", "us", "lower"},
		{"uml.decode_mb_s", "MB/s", "higher"},
		{"mapping.parse_us.p50", "us", "lower"},
		{"lint.run_us.p50", "us", "lower"},
		{"pathdisc.kshortest_us.p50", "us", "lower"},
		{"pathdisc.edge_visits_per_gen", "count/gen", "lower"},
		{"pathdisc.pruned_ratio", "ratio", "higher"},
		{"depend.analyze_us.p50", "us", "lower"},
		{"avail.montecarlo.self_share", "ratio", "lower"},
		{"avail.exact.self_share", "ratio", "lower"},
		{"avail.rbd.self_share", "ratio", "lower"},
		{"depend.compile.self_share", "ratio", "lower"},
		{"explain.report_us.p50", "us", "lower"},
		{"explain.attribution_us.p50", "us", "lower"},
		{"whatif.impact_us.p50", "us", "lower"},
		{"whatif.critical_us.p50", "us", "lower"},
		{"whatif.apply_us.p50", "us", "lower"},
		{"batch.fanout_gain", "ratio", "higher"},
		{"runtime.alloc_kb_per_req", "kB/req", "lower"},
		{"runtime.gc_per_kreq", "count/kreq", "lower"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".self_share", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"trace.unaccounted_share", "ratio", "lower"},
		metricDef{"trace.layer_us_per_req", "us", "lower"},
		metricDef{"trace.overhead_share", "ratio", "lower"},
		metricDef{"trace.requests", "count", "higher"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower"},
	)
}()

// moduleOf maps a span name to its layer; "" marks a span the layer
// accounting sees through (its time stays with the nearest known
// ancestor), "unaccounted" the per-request root.
func moduleOf(name string) string {
	switch name {
	case "request":
		return "unaccounted"
	case "cache":
		return "cache"
	case "step5.import_uml":
		return "uml"
	case "step6.import_mapping", "step8.merge":
		return "core"
	case "step7.pathdisc":
		return "pathdisc"
	}
	prefix, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	switch prefix {
	case "server", "cache", "core", "uml", "service", "mapping", "lint", "pathdisc", "depend", "explain", "whatif":
		return prefix
	case "avail":
		return "depend"
	}
	return ""
}
