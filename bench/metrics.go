package main

import "slices"

// metricDef declares one reported metric. BENCHMARK.json repeats this
// table for the driver; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // gated metrics only: share of the median it may worsen by
	from   string  // end-to-end: the phase it is taken in; per-layer: its source
}

// endToEnd are the gated metrics: what a user of the server sees, each
// as measured in exactly one phase of the untraced run against the real
// server processes. The issue's rule decides what stays here: medians
// and spread (inter-quartile distance over the median) of two
// interleaved A/A sets inside a bound of at most 0.10, else demoted,
// never a wider bound. On this host every time-based metric breaks
// that in some sitting (bench/README.md has the tables). setup_s is the
// driver's exception: it must be listed here, its spread is not held
// to the bound, and it is to carry the largest bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "setup"},
	{"peak_rss_mb", "MB", "lower", 0.10, "restart"},
}

// demoted are end-to-end metrics too — every run prints them beside
// the gated ones, under the names the issue gave them — but
// BENCHMARK.json lists them with the per-layer metrics, unbounded.
var demoted = []metricDef{
	{"ingest_msgs_per_s", "msgs/s", "higher", 0, "drain"},
	{"ingest_cpu_us_per_msg", "us", "lower", 0, "drain"},
	{"prov_p50_ms", "ms", "lower", 0, "serve"},
	{"prov_p95_ms", "ms", "lower", 0, "serve"},
	{"search_p50_ms", "ms", "lower", 0, "serve"},
	{"trending_p50_ms", "ms", "lower", 0, "serve"},
	{"query_mean_ms", "ms", "lower", 0, "serve"},
	{"restart_s", "s", "lower", 0, "restart"},
}

// Sources of per-layer metrics.
const (
	srcTrace  = "T" // stopwatch in the traced in-process replay
	srcScrape = "S" // before/after scrape of the server's /stats and /metrics
	srcProc   = "P" // /proc/<pid>
	srcDriver = "D" // the load generator's own observation
)

// perLayer is what BENCHMARK.json lists as per_layer: the demoted
// end-to-end metrics, then the layers'.
var perLayer = slices.Concat(demoted, layers)

// layers are the per-layer metrics, layer = module name. A metric
// whose layer does no work on a workload reads 0 there.
var layers = []metricDef{
	{"gen.synth_s", "s", "lower", 0, srcDriver},
	{"stream.decode_s", "s", "lower", 0, srcTrace},
	{"core.prepare_s", "s", "lower", 0, srcTrace},
	{"core.match_s", "s", "lower", 0, srcTrace},
	{"core.match_pruned_per_msg", "count", "higher", 0, srcScrape},
	{"core.place_s", "s", "lower", 0, srcTrace},
	{"bundle.place_scored_share", "%", "lower", 0, srcScrape},
	{"core.refine_s", "s", "lower", 0, srcTrace},
	{"pool.refines", "count", "lower", 0, srcScrape},
	{"pool.evicted_bundles", "count", "lower", 0, srcScrape},
	{"pool.live_bundles", "count", "lower", 0, srcScrape},
	{"storage.bundles", "count", "lower", 0, srcDriver},
	{"storage.live_mb", "MB", "lower", 0, srcDriver},
	{"storage.bytes_per_msg", "B", "lower", 0, srcDriver},
	{"archive.open_s", "s", "lower", 0, srcTrace},
	{"archive.bundles", "count", "lower", 0, srcTrace},
	{"query.insert_s", "s", "lower", 0, srcTrace},
	{"query.index_s", "s", "lower", 0, srcTrace},
	{"wal.append_s", "s", "lower", 0, srcTrace},
	{"wal.fsync_ms_mean", "ms", "lower", 0, srcScrape},
	{"wal.fsyncs", "count", "lower", 0, srcScrape},
	{"wal.bytes_per_msg", "B", "lower", 0, srcScrape},
	{"wal.replay_s", "s", "lower", 0, srcTrace},
	{"wal.replayed_msgs", "count", "lower", 0, srcScrape},
	{"pipeline.checkpoint_s_mean", "s", "lower", 0, srcScrape},
	{"pipeline.checkpoints", "count", "lower", 0, srcScrape},
	{"pipeline.checkpoint_mb", "MB", "lower", 0, srcDriver},
	{"pipeline.queue_depth_max", "count", "lower", 0, srcScrape},
	{"pipeline.backlog_max_msgs", "count", "lower", 0, srcDriver},
	{"shard.probe_s", "s", "lower", 0, srcTrace},
	{"shard.reduce_s", "s", "lower", 0, srcTrace},
	{"shard.commit_s", "s", "lower", 0, srcTrace},
	{"shard.rounds", "count", "lower", 0, srcScrape},
	{"shard.cross_share", "%", "lower", 0, srcScrape},
	{"shard.balance", "ratio", "lower", 0, srcScrape},
	{"shard.barrier_s_mean", "s", "lower", 0, srcScrape},
	{"core.load_checkpoint_s", "s", "lower", 0, srcTrace},
	{"query.reindex_s", "s", "lower", 0, srcTrace},
	{"query.search_bundles_ms_p50", "ms", "lower", 0, srcTrace},
	{"query.search_bundles_ms_p95", "ms", "lower", 0, srcTrace},
	{"query.search_messages_ms_p50", "ms", "lower", 0, srcTrace},
	{"query.trail_ms_p50", "ms", "lower", 0, srcTrace},
	{"trending.detect_ms_p50", "ms", "lower", 0, srcTrace},
	{"server.search_p95_ms", "ms", "lower", 0, srcDriver},
	{"server.bundle_p50_ms", "ms", "lower", 0, srcDriver},
	{"server.bundle_p95_ms", "ms", "lower", 0, srcDriver},
	{"server.trending_p90_ms", "ms", "lower", 0, srcDriver},
	{"server.prov_max_ms", "ms", "lower", 0, srcDriver},
	{"server.handler_s.prov", "s", "lower", 0, srcScrape},
	{"server.handler_s.search", "s", "lower", 0, srcScrape},
	{"server.handler_s.bundle", "s", "lower", 0, srcScrape},
	{"server.handler_s.trending", "s", "lower", 0, srcScrape},
	{"server.http_overhead_ms", "ms", "lower", 0, srcScrape + srcTrace},
	{"provserve.startup_s", "s", "lower", 0, srcProc},
	{"provserve.cpu_s_drain", "s", "lower", 0, srcProc},
	{"provserve.cpu_s_serve", "s", "lower", 0, srcProc},
	{"provserve.rss_after_preload_mb", "MB", "lower", 0, srcProc},
	{"bundle.mem_mb", "MB", "lower", 0, srcScrape},
	{"sumindex.mem_mb", "MB", "lower", 0, srcScrape},
	{"trace.unaccounted_s_drain", "s", "lower", 0, srcTrace},
	{"trace.unaccounted_s_restart", "s", "lower", 0, srcTrace},
	{"trace.overhead_share", "%", "lower", 0, srcTrace},
}
