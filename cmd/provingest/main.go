// Command provingest replays a micro-blog dataset through the
// provenance indexing engine and reports ingest statistics — the
// simulation loop of the paper's Section VI-A as a standalone tool.
//
// Usage:
//
//	provgen -n 100000 | provingest -mode partial -pool 1500
//	provingest -in stream.jsonl -mode limit -pool 1500 -bundle-limit 300 -store /tmp/bundles
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"provex/internal/cli"
	"provex/internal/core"
	"provex/internal/score"
	"provex/internal/shard"
	"provex/internal/storage"
	"provex/internal/stream"
	"provex/internal/trace"
)

func main() {
	var (
		in          = flag.String("in", "-", "input JSONL path, '-' for stdin")
		mode        = flag.String("mode", "full", "indexing mode: full | partial | limit")
		poolLimit   = flag.Int("pool", 10_000, "bundle pool limitation (partial/limit modes)")
		bundleLimit = flag.Int("bundle-limit", 500, "max bundle size (limit mode)")
		storeDir    = flag.String("store", "", "optional on-disk bundle store directory")
		progress    = flag.Int("progress", 100_000, "print a progress line every N messages (0 = off)")
		shards      = flag.Int("shards", 1, "independent engine shards; >1 ingests through the two-phase round protocol (DESIGN.md section 2i)")
		shardBatch  = flag.Int("shard-batch", shard.DefaultBatch, "messages buffered per sharded round (only with -shards > 1)")
		traceSample = flag.Int("trace-sample", 0, "record every Nth ingest decision and print a decision-quality digest (0 = off)")
		traceBuffer = flag.Int("trace-buffer", trace.DefaultBuffer, "decisions and refinement events retained in the trace rings")
		logLevel    = cli.LogLevelFlag()
	)
	flag.Parse()
	if err := cli.SetupLogging(*logLevel); err != nil {
		cli.Fatal("flags", err)
	}

	var cfg core.Config
	switch *mode {
	case "full":
		cfg = core.FullIndexConfig()
	case "partial":
		cfg = core.PartialIndexConfig(*poolLimit)
	case "limit":
		cfg = core.BundleLimitConfig(*poolLimit, *bundleLimit)
	default:
		cli.Fatal("unknown mode (want full, partial or limit)", nil, "mode", *mode)
	}
	if *shards < 1 {
		*shards = 1
	}

	// -store names the one store at -shards 1; with more shards each gets
	// its own under -store/shard-NNN (same layout as shard.OpenDurable).
	var stores []*storage.Store
	for i := 0; *storeDir != "" && i < *shards; i++ {
		dir := *storeDir
		if *shards > 1 {
			dir = fmt.Sprintf("%s/shard-%03d", *storeDir, i)
		}
		st, err := storage.Open(dir, storage.Options{})
		if err != nil {
			cli.Fatal("open store", err, "path", dir)
		}
		defer st.Close()
		stores = append(stores, st)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			cli.Fatal("open input", err, "path", *in)
		}
		defer f.Close()
		r = f
	}

	// One ingest path at every shard count: one shard is the serial
	// apply loop behind the sharded API (DESIGN.md section 2i).
	var rec *trace.Recorder
	if *traceSample > 0 {
		rec = trace.New(trace.Options{SampleEvery: *traceSample, Buffer: *traceBuffer, Logger: slog.Default()})
	}
	sh, err := shard.New(cfg, shard.Options{Shards: *shards, Batch: *shardBatch}, stores, nil)
	if err != nil {
		cli.Fatal("sharded engine", err)
	}
	sh.SetTracer(rec)
	src := stream.NewJSONLReader(r)

	// SIGINT/SIGTERM break the loop gracefully: the current message
	// finishes, parked flushes drain, the store closes cleanly, and the
	// statistics for everything ingested so far still print.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	n := 0
loop:
	for {
		select {
		case <-ctx.Done():
			slog.Warn("interrupted — draining", "messages", n)
			break loop
		default:
		}
		m, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cli.Fatal("read", err)
		}
		if err := sh.IngestPrepared(core.Prepare(m)); err != nil {
			cli.Fatal("ingest", err)
		}
		n++
		if *progress > 0 && n%*progress == 0 {
			st := sh.Snapshot()
			slog.Info("progress", "messages", n, "bundles_live", st.BundlesLive,
				"mem_mb", fmt.Sprintf("%.1f", float64(st.MemTotal())/(1<<20)),
				"seconds", fmt.Sprintf("%.1f", time.Since(start).Seconds()))
		}
	}
	// Resolve the buffered partial round before reporting.
	if err := sh.Flush(); err != nil {
		cli.Fatal("flush", err)
	}
	// Re-attempt any parked flushes and make the stores durable before
	// reporting; a still-failing disk is a hard error.
	for i, st := range stores {
		if err := sh.ShardEngine(i).DrainFlushRetries(); err != nil {
			cli.Fatal("flush drain", err, "shard", i)
		}
		if err := st.Sync(); err != nil {
			cli.Fatal("store sync", err, "shard", i)
		}
	}
	if err := sh.Err(); err != nil {
		cli.Fatal("engine", err)
	}

	st := sh.Snapshot()
	elapsed := time.Since(start)
	fmt.Printf("mode            %s\n", *mode)
	fmt.Printf("messages        %d\n", st.Messages)
	fmt.Printf("bundles created %d\n", st.BundlesCreated)
	fmt.Printf("bundles live    %d\n", st.BundlesLive)
	fmt.Printf("edges           %d\n", st.EdgesCreated)
	for conn := score.ConnText; conn <= score.ConnRT; conn++ { // Table II order
		fmt.Printf("  edges[%s] = %d\n", conn, st.ConnCounts[conn.String()])
	}
	fmt.Printf("mem estimate    %.1f MB (bundles %.1f + index %.1f)\n",
		float64(st.MemTotal())/(1<<20), float64(st.MemBundles)/(1<<20), float64(st.MemIndex)/(1<<20))
	fmt.Printf("msgs in memory  %d\n", st.MessagesInMemory)
	// Stage split of ingest cost — the paper's Figure 13 breakdown, with
	// the prepare (tokenize) stage separated out.
	stageTotal := st.PrepareTime + st.MatchTime + st.PlaceTime + st.RefineTime
	pct := func(d time.Duration) float64 {
		if stageTotal <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(stageTotal)
	}
	fmt.Printf("stage time      prepare=%.2fs (%.0f%%) match=%.2fs (%.0f%%) place=%.2fs (%.0f%%) refine=%.2fs (%.0f%%)\n",
		st.PrepareTime.Seconds(), pct(st.PrepareTime),
		st.MatchTime.Seconds(), pct(st.MatchTime),
		st.PlaceTime.Seconds(), pct(st.PlaceTime),
		st.RefineTime.Seconds(), pct(st.RefineTime))
	fmt.Printf("wall time       %.2fs (%.0f msg/s)\n", elapsed.Seconds(), float64(n)/elapsed.Seconds())
	if sh.Shards() > 1 {
		// Per-shard balance, cross-shard resolution rate, and the
		// critical-path (span) throughput an unstarved scheduler would
		// reach. Span is a model of one core per shard; the benchmark's
		// steady-sharded workload measures wall clock (EXPERIMENTS.md,
		// "Sharded ingest scaling").
		fmt.Printf("shards          %d (batch %d, rounds %d, cross-shard %d = %.1f%%)\n",
			sh.Shards(), sh.Batch(), sh.Rounds(), sh.Cross(), 100*float64(sh.Cross())/float64(max(n, 1)))
		for i := 0; i < sh.Shards(); i++ {
			ss := sh.ShardSnapshot(i)
			fmt.Printf("  shard[%d]      %d msgs, %d bundles live\n", i, ss.Messages, ss.BundlesLive)
		}
		span := sh.Span()
		fmt.Printf("span time       probe=%.2fs reduce=%.2fs commit=%.2fs total=%.2fs (%.0f msg/s span)\n",
			span.Probe.Seconds(), span.Reduce.Seconds(), span.Commit.Seconds(),
			span.Total().Seconds(), float64(n)/span.Total().Seconds())
	}
	for i, st := range stores {
		label := "store"
		if len(stores) > 1 {
			label = fmt.Sprintf("store[%d]", i)
		}
		fmt.Printf("%-16s%d bundles, %.1f MB live\n", label, st.Count(), float64(st.LiveBytes())/(1<<20))
	}
	if rec != nil {
		// Decision-quality digest over the retained trace window: how
		// often matching failed (new bundle), how decisively joins won,
		// and the fraction of near-tie joins — the messages most
		// sensitive to Eq. 1 weight tuning.
		dg := trace.ComputeDigest(rec.Recent(rec.Buffer()), 0)
		fmt.Printf("trace digest    decisions=%d new_bundle=%.1f%% mean_margin=%.3f near_ties=%.1f%% (margin<%.2f) refine_events=%d\n",
			dg.Decisions, 100*dg.NewBundleRate, dg.MeanMargin,
			100*dg.NearTieRate, dg.NearTie, len(rec.Refinements(rec.Buffer())))
	}
}
