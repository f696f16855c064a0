package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// result is one workload run, reduced to the reported metrics.
type result struct {
	workload  string
	metrics   map[string]float64 // end-to-end and per-layer, by name
	attempted int
	failed    int
	problems  []string
	notes     []string // sample counts, recovered messages: context, not verdicts
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reduceReal turns the observations of the real run into the
// end-to-end metrics and the per-layer metrics sourced from the
// driver, /proc and the server's own /stats and /metrics.
func reduceReal(w workload, rec *recipe, pl plan, seed int64, synthS float64, r *realRun) *result {
	res := &result{
		workload: w.name, metrics: map[string]float64{},
		attempted: r.attempted, failed: r.failed, problems: r.problems,
	}
	m := res.metrics
	drain := float64(pl.drain)

	var sorted [numKinds][]float64
	var all []float64
	for k := range r.latencyMs {
		sorted[k] = sortedCopy(r.latencyMs[k])
		all = append(all, r.latencyMs[k]...)
	}

	m["setup_s"] = r.setupS
	m["ingest_msgs_per_s"] = ratio(drain, r.drainWallS)
	m["ingest_cpu_us_per_msg"] = ratio(r.cpuDrainS*1e6, drain)
	m["prov_p50_ms"] = percentile(sorted[kindProv], 50)
	m["prov_p95_ms"] = percentile(sorted[kindProv], 95)
	m["search_p50_ms"] = percentile(sorted[kindSearch], 50)
	m["trending_p50_ms"] = percentile(sorted[kindTrending], 50)
	m["query_mean_ms"] = mean(all)
	m["restart_s"] = r.restartS
	m["peak_rss_mb"] = r.peakRSSMB

	m["gen.synth_s"] = synthS
	m["server.search_p95_ms"] = percentile(sorted[kindSearch], 95)
	m["server.bundle_p50_ms"] = percentile(sorted[kindBundle], 50)
	m["server.bundle_p95_ms"] = percentile(sorted[kindBundle], 95)
	m["server.trending_p90_ms"] = percentile(sorted[kindTrending], 90)
	m["server.prov_max_ms"] = percentile(sorted[kindProv], 100)
	m["provserve.startup_s"] = r.startupS
	m["provserve.cpu_s_drain"] = r.cpuDrainS
	m["provserve.cpu_s_serve"] = r.cpuServeS
	m["provserve.rss_after_preload_mb"] = r.rssPreloadMB
	m["pipeline.backlog_max_msgs"] = float64(r.backlogMax)
	m["pipeline.queue_depth_max"] = r.queueDepthMax
	m["pipeline.checkpoint_mb"] = float64(r.checkpointBytes) / (1 << 20)
	m["storage.bundles"] = float64(r.storeBundles)
	m["storage.live_mb"] = float64(r.storeLiveBytes) / (1 << 20)
	m["storage.bytes_per_msg"] = ratio(float64(r.storeSize), float64(pl.total()))
	m["bundle.mem_mb"] = float64(r.final.MemBundles) / (1 << 20)
	m["sumindex.mem_mb"] = float64(r.final.MemIndex) / (1 << 20)
	m["pool.live_bundles"] = float64(r.final.BundlesLive)

	// Deltas of the server's own counters over the drain phase.
	delta := func(from, to samples, name string, want ...string) float64 {
		return to.sum(name, want...) - from.sum(name, want...)
	}
	scored := delta(r.atSetup, r.atDrain, "provex_place_nodes_scored_total")
	skipped := delta(r.atSetup, r.atDrain, "provex_place_nodes_skipped_total")
	m["core.match_pruned_per_msg"] = ratio(delta(r.atSetup, r.atDrain, "provex_match_candidates_pruned_total"), drain)
	m["bundle.place_scored_share"] = 100 * ratio(scored, scored+skipped)
	fsyncs := delta(r.atSetup, r.atDrain, "provex_wal_fsync_seconds_count")
	m["wal.fsyncs"] = fsyncs
	m["wal.fsync_ms_mean"] = 1e3 * ratio(delta(r.atSetup, r.atDrain, "provex_wal_fsync_seconds_sum"), fsyncs)
	ckpts := delta(r.atSetup, r.atDrain, "provex_pipeline_checkpoint_seconds_count")
	m["pipeline.checkpoint_s_mean"] = ratio(delta(r.atSetup, r.atDrain, "provex_pipeline_checkpoint_seconds_sum"), ckpts)
	m["pipeline.checkpoints"] = r.atServe.sum("provex_pipeline_checkpoints_total")
	m["shard.rounds"] = delta(r.atSetup, r.atDrain, "provex_shard_rounds_total")
	m["shard.cross_share"] = 100 * ratio(delta(r.atSetup, r.atDrain, "provex_shard_cross_resolutions_total"), drain)
	if perShard := r.atServe.sum("provex_shard_messages_total"); perShard > 0 {
		m["shard.balance"] = r.atServe.max("provex_shard_messages_total") / (perShard / float64(w.shards))
	} else {
		m["shard.balance"] = 0
	}
	m["shard.barrier_s_mean"] = ratio(r.atServe.sum("provex_shard_checkpoint_barrier_seconds_sum"),
		r.atServe.sum("provex_shard_checkpoint_barrier_seconds_count"))

	// State at the end of serve, and the recovery's own report.
	m["pool.refines"] = r.atServe.sum("provex_pool_refines_total")
	m["pool.evicted_bundles"] = r.atServe.sum("provex_pool_evictions_total")
	// The log was truncated by the last checkpoint; what is left holds
	// the messages since.
	sinceCkpt := float64(pl.total() % checkpointEvery)
	m["wal.bytes_per_msg"] = ratio(r.atServe.sum("provex_wal_size_bytes"), sinceCkpt)
	m["wal.replayed_msgs"] = r.afterRestart.sum("provex_wal_replayed_messages")
	for k := queryKind(0); k < numKinds; k++ {
		m["server.handler_s."+k.String()] = delta(r.atDrain, r.atServe,
			"provex_http_request_duration_seconds_sum", fmt.Sprintf("path=%q", "/"+k.String()))
	}

	res.checkShape(w, rec, pl, seed, r.final)
	for k := queryKind(0); k < numKinds; k++ {
		res.notes = append(res.notes, fmt.Sprintf("%s n=%d", k, len(sorted[k])))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("highest percentile /prov supports: p%g", highestPercentile(len(sorted[kindProv]))),
		fmt.Sprintf("phase walls: setup %.2fs, drain %.2fs (cpu %.2fs, %.0f fsyncs of %.2fms, checkpoints %.2fs), serve %.2fs, restart %.2fs",
			r.setupS, r.drainWallS, r.cpuDrainS, fsyncs, m["wal.fsync_ms_mean"], ckpts*m["pipeline.checkpoint_s_mean"], r.serveWallS, r.restartS),
		fmt.Sprintf("restart recovered %d of %d messages", r.recovered, pl.total()),
		fmt.Sprintf("bundles_created %d, edges %d", r.final.BundlesCreated, r.final.Edges))
	return res
}

// checkShape holds the final /stats against the recipe's Fig. 6 shape:
// the bundles-per-message band at any seed, the exact pinned counts at
// the pinned seed and nominal length.
func (res *result) checkShape(w workload, rec *recipe, pl plan, seed int64, final statsJSON) {
	exp, ok := rec.Expect[w.name]
	if !ok {
		res.problems = append(res.problems, fmt.Sprintf("recipe %s expects nothing of workload %s", rec.Name, w.name))
		return
	}
	// Short test runs have not built up the steady-state event mix the
	// band describes.
	if !pl.nominal {
		return
	}
	perMsg := float64(final.BundlesCreated) / float64(pl.total())
	if perMsg < exp.BundlesPerMsgMin || perMsg > exp.BundlesPerMsgMax {
		res.problems = append(res.problems, fmt.Sprintf("%.4f bundles per message, recipe %s allows [%g, %g]",
			perMsg, rec.Name, exp.BundlesPerMsgMin, exp.BundlesPerMsgMax))
	}
	if seed != rec.PinnedSeed || exp.BundlesCreated == 0 {
		return
	}
	if off := math.Abs(float64(final.BundlesCreated-exp.BundlesCreated)) / float64(exp.BundlesCreated); off > w.bundleTol {
		res.problems = append(res.problems, fmt.Sprintf("bundles_created %d, recipe %s pins %d (tolerance %g)",
			final.BundlesCreated, rec.Name, exp.BundlesCreated, w.bundleTol))
	}
	if w.bundleTol == 0 && final.Edges != exp.Edges {
		res.problems = append(res.problems, fmt.Sprintf("edges %d, recipe %s pins %d", final.Edges, rec.Name, exp.Edges))
	}
}

// addReplay folds the traced and untraced in-process replays into the
// per-layer metrics.
func (res *result) addReplay(w workload, tr *tracer, traced, untraced *replayResult) {
	m := res.metrics
	drain, restart := tr.phase(phDrain), tr.phase(phRestart)
	sec := func(p *phaseTrace, ly layer) float64 { return p.layers[ly].total.Seconds() }

	m["stream.decode_s"] = sec(drain, lyDecode)
	m["core.prepare_s"] = sec(drain, lyPrepare)
	m["core.match_s"] = traced.drainStats.match.Seconds()
	m["core.place_s"] = traced.drainStats.place.Seconds()
	m["core.refine_s"] = traced.drainStats.refine.Seconds()
	m["query.insert_s"] = sec(drain, lyInsert)
	m["query.index_s"] = 0
	m["wal.append_s"] = traced.drainWAL
	if w.shards <= 1 {
		// One engine on one goroutine: its stage timers partition the
		// insert span, and the WAL stopwatch is ours.
		m["query.index_s"] = sec(drain, lyInsert) - m["core.match_s"] - m["core.place_s"] - m["core.refine_s"]
		m["wal.append_s"] = sec(drain, lyWALAppend)
	}
	m["shard.probe_s"] = traced.drainSpan.Probe.Seconds()
	m["shard.reduce_s"] = traced.drainSpan.Reduce.Seconds()
	m["shard.commit_s"] = traced.drainSpan.Commit.Seconds()

	m["core.load_checkpoint_s"] = traced.loadCkpt.Seconds()
	m["wal.replay_s"] = max(0, sec(restart, lyOpenDurable)-traced.loadCkpt.Seconds())
	m["query.reindex_s"] = sec(restart, lyReindex)
	m["archive.open_s"] = 0
	if w.bounded() {
		m["archive.open_s"] = sec(restart, lyNewProcessor)
	}
	m["archive.bundles"] = float64(traced.archived)

	local := func(k queryKind, p float64) float64 { return percentile(sortedCopy(traced.latencyMs[k]), p) }
	m["query.search_bundles_ms_p50"] = local(kindProv, 50)
	m["query.search_bundles_ms_p95"] = local(kindProv, 95)
	m["query.search_messages_ms_p50"] = local(kindSearch, 50)
	m["query.trail_ms_p50"] = local(kindBundle, 50)
	m["trending.detect_ms_p50"] = local(kindTrending, 50)
	m["server.http_overhead_ms"] = m["search_p50_ms"] - m["query.search_messages_ms_p50"]

	m["trace.unaccounted_s_drain"] = drain.unaccounted().Seconds()
	m["trace.unaccounted_s_restart"] = restart.unaccounted().Seconds()
	m["trace.overhead_share"] = 100 * (traced.setupWall.Seconds() - untraced.setupWall.Seconds()) / untraced.setupWall.Seconds()
}

// printMetrics lists defs with the values res holds for them.
func (res *result) printMetrics(out io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(out, "\n%s — %s\n", res.workload, title)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-34s %14.4f %-7s %s\n", d.name, v, d.unit, d.from)
	}
}

// printVerdict reports operation counts, notes and every failed check.
func (res *result) printVerdict(out io.Writer) {
	fmt.Fprintf(out, "  attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct())
	for _, n := range res.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	const show = 10
	for i, p := range res.problems {
		if i == show {
			fmt.Fprintf(out, "  ... and %d more problems\n", len(res.problems)-show)
			break
		}
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// printPhaseTables prints, per phase of the traced replay, each
// layer's self time and share, with the unaccounted residual as the
// last row so the rows sum to the phase's wall clock.
func printPhaseTables(out io.Writer, w workload, tr *tracer, traced *replayResult) {
	for _, p := range tr.phases {
		fmt.Fprintf(out, "\n%s — traced replay, phase %s (wall %.3fs)\n", w.name, p.name, p.wall.Seconds())
		fmt.Fprintf(out, "  %-28s %10s %7s %9s\n", "layer", "self_s", "share", "calls")
		row := func(name string, d time.Duration, calls int) {
			fmt.Fprintf(out, "  %-28s %10.4f %6.1f%% %9d\n", name, d.Seconds(), 100*ratio(d.Seconds(), p.wall.Seconds()), calls)
		}
		for ly := lyPhase + 1; ly < numLayers; ly++ {
			s := p.layers[ly]
			if s.calls == 0 {
				continue
			}
			row(layerNames[ly], s.self(), s.calls)
			// Inside the span: the callee's own stage timers, or for the
			// recovery the bare checkpoint load timed apart from it.
			switch {
			case p.name == phRestart && ly == lyOpenDurable:
				row("  of which core.load_checkpoint", traced.loadCkpt, 1)
				row("  of which wal.replay", max(0, s.self()-traced.loadCkpt), 1)
			case p.name != phDrain:
			case ly == lyInsert:
				st := traced.drainStats
				row("  of which core.match", st.match, s.calls)
				row("  of which core.place", st.place, s.calls)
				row("  of which core.refine", st.refine, s.calls)
				row("  of which query.index", s.self()-st.match-st.place-st.refine, s.calls)
			case ly == lyShardIngest:
				sp := traced.drainSpan
				row("  of which shard.probe", sp.Probe, s.calls)
				row("  of which shard.reduce", sp.Reduce, s.calls)
				row("  of which shard.commit", sp.Commit, s.calls)
				row("  of which ledger+barrier", s.self()-sp.Total(), s.calls)
			}
		}
		row("trace.unaccounted_s_"+p.name, p.unaccounted(), 1)
	}
}

// driverLine is the one JSON object the driver reads from the last
// line of standard output.
func (res *result) driverLine(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no finite value", d.name)
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

// environmentLine records what an outlier run would be explained by.
func environmentLine() string {
	return fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d %s loadavg=[%s]",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), loadavg())
}
