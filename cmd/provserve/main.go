// Command provserve hosts the demo site of the paper (Section V-C's
// t.pku.edu.cn/tweet analogue): it loads or generates a dataset, builds
// the provenance index, and serves message search, bundle search and
// trail visualisation over HTTP. Every run also exposes operational
// telemetry at GET /metrics (Prometheus text exposition; see
// OBSERVABILITY.md) and, with -pprof, runtime profiles under
// /debug/pprof/.
//
// Usage:
//
//	provserve -n 50000 -addr :8080              # generate, build, serve
//	provserve -in stream.jsonl -addr :8080      # serve an existing dataset
//	provgen -n 0 | provserve -live              # live ingest from stdin while serving
//	provserve -in s.jsonl -ckpt engine.ckpt     # crash-safe: resume from the checkpoint, WAL at engine.ckpt.wal
//	provserve -live -ckpt e.ckpt -wal wal       # the same with the WAL elsewhere (add -shards 4 for the sharded engine)
//	provserve -follow http://leader:8080 -ckpt f.ckpt -addr :8081   # read replica of a durable node
//	provserve -n 50000 -pprof                   # + /debug/pprof/ for provload runs
//
// Every mode but -follow runs one path: -shards picks the engine, one
// pipeline.Service ingests the input into it, and -live only decides
// whether the listener opens beside the feed or after it. At end of
// input, ingest stops with a final checkpoint and the node keeps
// serving. -ckpt makes any mode durable: every acknowledged message is
// in the write-ahead log at -wal (default <ckpt>.wal) before queries see
// it. With -shards > 1, -ckpt is the cross-shard manifest and -wal the
// per-shard tree; a durable serial node is also a replication leader,
// shipping its WAL under /repl/.
//
// A follower serves the same read endpoints with an explicit staleness
// bound: beyond -max-lag messages (or -stale-after of leader silence)
// it flips /readyz and answers data requests 503 + Retry-After until
// it has caught up.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"provex/internal/cli"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/repl"
	"provex/internal/server"
	"provex/internal/shard"
	"provex/internal/stream"
	"provex/internal/trace"
)

func main() {
	var (
		in          = flag.String("in", "", "input JSONL path ('' = generate -n messages; with -live, '' = stdin)")
		n           = flag.Int("n", 50_000, "messages to generate when -in is empty (ignored with -live)")
		seed        = flag.Int64("seed", 1, "generator seed")
		addr        = flag.String("addr", ":8080", "listen address")
		live        = flag.Bool("live", false, "serve while ingesting (default: ingest the whole input first)")
		follow      = flag.String("follow", "", "run as a read replica of the leader at this base URL (requires -ckpt)")
		maxLag      = flag.Uint64("max-lag", 10_000, "follower staleness bound in messages; beyond it reads answer 503 + Retry-After")
		staleAfter  = flag.Duration("stale-after", 30*time.Second, "follower gates reads after this much leader silence (staleness unquantifiable)")
		ckpt        = flag.String("ckpt", "", "checkpoint path: resume from it when present, keep it updated while running; makes ingest crash-safe — acknowledged messages survive a kill")
		walDir      = flag.String("wal", "", "write-ahead log directory (requires -ckpt; default <ckpt>.wal)")
		shards      = flag.Int("shards", 1, "engine shards; >1 ingests through the sharded round protocol (0 = auto: min(GOMAXPROCS, 8)); replication requires 1")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ runtime profiles (opt-in: costs CPU while sampling)")
		logEvery    = flag.Duration("log-every", 10*time.Second, "cadence of structured progress lines")
		traceSample = flag.Int("trace-sample", 0, "record every Nth ingest decision for /explain and /trace/* (0 = tracing off)")
		traceBuffer = flag.Int("trace-buffer", trace.DefaultBuffer, "decisions and refinement events retained in the trace rings")
		logLevel    = cli.LogLevelFlag()
	)
	flag.Parse()
	if err := cli.SetupLogging(*logLevel); err != nil {
		cli.Fatal("flags", err)
	}
	ns := *shards
	if ns == 0 {
		ns = min(runtime.GOMAXPROCS(0), 8)
	}
	if *ckpt != "" && *walDir == "" {
		*walDir = *ckpt + ".wal"
	}
	if err := validate(ns, *follow, *ckpt, *walDir); err != nil {
		cli.Fatal("flags", err)
	}
	if *follow != "" {
		serveFollower(*follow, *addr, *ckpt, *walDir, *maxLag, *staleAfter, *pprofOn, *logEvery)
		return
	}

	rec := newRecorder(*traceSample, *traceBuffer)
	src := openSource(*in, *n, *seed, *live)
	reg := metrics.NewRegistry()
	var nd node
	if ns > 1 {
		nd = openSharded(ns, *ckpt, *walDir, reg, rec)
	} else {
		nd = openSerial(*ckpt, *walDir, reg, rec)
	}
	nd.svc.RegisterMetrics(reg)
	srvOpts := serverOptions(reg, *pprofOn, rec)
	if nd.shipper != nil {
		srvOpts = append(srvOpts, server.WithReplication(nd.shipper))
	}
	slog.Info("serving", "addr", *addr, "shards", ns, "live", *live, "durable", nd.close != nil,
		"leader", nd.shipper != nil, "recovered", nd.svc.Snapshot().Messages, "wal_replayed", nd.replayed,
		"try", "/prov?q=tsunami+samoa")
	serve(nd, src, *live, *addr, *logEvery, srvOpts)
}

// validate checks the flag combinations every mode shares, before any
// state is opened. shards is the resolved count (never 0) and walDir
// the resolved directory (set whenever ckpt is).
func validate(shards int, follow, ckpt, walDir string) error {
	switch {
	case shards < 1:
		return fmt.Errorf("-shards %d: want a count, or 0 for auto", shards)
	case walDir != "" && ckpt == "":
		return errors.New("-wal requires -ckpt")
	case follow != "" && shards > 1:
		return errors.New("-follow requires -shards 1: WAL shipping replicates a single serial log (DESIGN.md section 2i)")
	case follow != "" && ckpt == "":
		return errors.New("-follow requires -ckpt: a follower is a full crash-recoverable node")
	}
	return nil
}

const (
	checkpointEvery = 50_000 // checkpoint cadence, in applied messages
	walSyncEvery    = 64     // WAL appends per fsync
)

// node is an opened engine behind its ingest service: everything serve
// needs, whichever engine -shards picked.
type node struct {
	svc      *pipeline.Service
	close    func() error // releases the durable files; nil without -ckpt
	shipper  *repl.Source // WAL shipping to followers; durable serial nodes only
	replayed int          // messages the WAL contributed at open
}

// openSerial builds the serial engine: durable with -ckpt (and then a
// replication leader shipping its WAL under /repl/), otherwise in
// memory.
func openSerial(ckpt, walDir string, reg *metrics.Registry, rec *trace.Recorder) node {
	var nd node
	opts := pipeline.Options{CheckpointEvery: checkpointEvery}
	var eng *core.Engine
	if ckpt == "" {
		eng = core.New(core.FullIndexConfig(), nil, nil)
	} else {
		dur, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, pipeline.DurableOptions{
			CheckpointPath: ckpt,
			WALDir:         walDir,
			WALSyncEvery:   walSyncEvery,
		})
		if err != nil {
			cli.Fatal("durable open", err)
		}
		eng = dur.Engine()
		dur.RegisterMetrics(reg)
		opts.Durable = dur
		nd.close, nd.replayed = dur.Close, dur.Replayed()
		nd.shipper = repl.NewSource(dur, repl.SourceOptions{})
		nd.shipper.RegisterMetrics(reg)
	}
	eng.SetTracer(rec)
	eng.RegisterMetrics(reg)
	proc := query.New(eng, query.DefaultOptions())
	// Recovery bypassed the processor, so rebuild the baseline message
	// index from the recovered pool — /search answers over the full
	// recovered history, not just post-resume messages.
	proc.Reindex()
	proc.RegisterMetrics(reg)
	nd.svc = pipeline.New(proc, opts)
	return nd
}

// openSharded builds the sharded round engine (DESIGN.md section 2i):
// durable with -ckpt, otherwise in memory. Replication shipping is a
// single-shard feature: a sharded node exposes no /repl/ endpoints.
func openSharded(ns int, ckpt, walDir string, reg *metrics.Registry, rec *trace.Recorder) node {
	var nd node
	q := query.DefaultOptions()
	opts := shard.Options{Shards: ns, Query: &q}
	var eng *shard.Engine
	var dur *shard.Durable
	var err error
	if ckpt != "" {
		dur, err = shard.OpenDurable(core.FullIndexConfig(), opts, shard.DurableOptions{
			Dir:          walDir,
			ManifestPath: ckpt,
			WALSyncEvery: walSyncEvery,
		})
		if err != nil {
			cli.Fatal("sharded durable open", err)
		}
		eng = dur.Engine
		eng.Reindex() // as in openSerial: one index over every shard
		dur.RegisterMetrics(reg)
		nd.close, nd.replayed = dur.Close, dur.Replayed()
	} else if eng, err = shard.New(core.FullIndexConfig(), opts, nil, nil); err != nil {
		cli.Fatal("sharded engine", err)
	}
	eng.SetTracer(rec)
	eng.RegisterMetrics(reg)
	nd.svc, err = shard.NewService(eng, dur, shard.ServiceOptions{CheckpointEvery: checkpointEvery})
	if err != nil {
		cli.Fatal("sharded service", err)
	}
	return nd
}

// serve is everything after the engine is open, in every mode: feed
// the input into the service, stop ingest (final checkpoint) when it
// ends, log a heartbeat, answer HTTP and shut down cleanly — on a
// signal during the feed as after it. live opens the listener beside
// the feed instead of after it.
func serve(nd node, src stream.Source, live bool, addr string, logEvery time.Duration, srvOpts []server.Option) {
	svc := nd.svc
	svc.Start()
	var fed chan struct{} // closed at end of input; nil with -live
	if !live {
		fed = make(chan struct{})
	}
	go func() {
		start := time.Now()
		for {
			m, err := src.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = svc.Submit(m)
			}
			if errors.Is(err, pipeline.ErrClosed) {
				return // shutdown raced the feed; drop the rest
			}
			if err != nil {
				cli.Fatal("feed", err)
			}
		}
		// Only ingest closes: the service keeps answering queries.
		if err := svc.Stop(); err != nil {
			cli.Fatal("ingest", err)
		}
		st := svc.Snapshot()
		slog.Info("input drained, still serving", "messages", st.Messages, "bundles", st.BundlesLive,
			"seconds", fmt.Sprintf("%.1f", time.Since(start).Seconds()))
		if fed != nil {
			close(fed)
		}
	}()

	// The same numbers /metrics exports, so a terminal tail shows where
	// ingest stands.
	heartbeat(logEvery, "live", func() []any {
		st := svc.Snapshot()
		attrs := []any{"messages", st.Messages, "bundles", st.BundlesLive,
			"mem_mb", fmt.Sprintf("%.1f", float64(st.MemTotal())/(1<<20)), "checkpoints", svc.Checkpoints()}
		if st.Degraded() {
			attrs = append(attrs, "flush_parked", st.FlushParked, "flush_dropped", st.FlushDropped)
		}
		return attrs
	})

	serveHTTP(addr, server.New(svc, srvOpts...), fed, func() {
		// Stop drains the ingest queue and writes the final checkpoint
		// (which also truncates the WAL on a durable node).
		if err := svc.Stop(); err != nil {
			slog.Error("ingest stop", "err", err)
		}
		if nd.close != nil {
			if err := nd.close(); err != nil {
				slog.Error("wal close", "err", err)
			}
		}
	})
}

// heartbeat logs msg with fresh attrs every interval, for the life of
// the process.
func heartbeat(every time.Duration, msg string, attrs func() []any) {
	go func() {
		for range time.Tick(every) {
			slog.Info(msg, attrs()...)
		}
	}()
}

// newRecorder builds the decision tracer, nil when sampling is off
// (every consumer accepts a nil recorder).
func newRecorder(sample, buffer int) *trace.Recorder {
	if sample <= 0 {
		return nil
	}
	rec := trace.New(trace.Options{SampleEvery: sample, Buffer: buffer, Logger: slog.Default()})
	slog.Info("decision tracing on", "sample_every", sample, "buffer", rec.Buffer())
	return rec
}

// serverOptions assembles the observability options every mode shares.
func serverOptions(reg *metrics.Registry, pprofOn bool, rec *trace.Recorder) []server.Option {
	opts := []server.Option{server.WithRegistry(reg)}
	if pprofOn {
		opts = append(opts, server.WithPprof())
	}
	if rec != nil {
		rec.RegisterMetrics(reg)
		opts = append(opts, server.WithTrace(rec))
	}
	return opts
}

// serveHTTP runs a configured http.Server until it fails or a
// SIGINT/SIGTERM arrives, then drains in-flight requests and calls
// onShutdown (ingest drain + final checkpoint). A non-nil after delays
// only the listener, until it is closed; the signals count from the start.
func serveHTTP(addr string, h http.Handler, after <-chan struct{}, onShutdown func()) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		if after != nil {
			<-after
		}
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		cli.Fatal("serve", err)
	case sig := <-sigc:
		slog.Info("draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			slog.Error("http shutdown", "err", err)
		}
		onShutdown()
		slog.Info("clean exit")
	}
}

func openSource(in string, n int, seed int64, live bool) stream.Source {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			cli.Fatal("open input", err, "path", in)
		}
		return stream.NewJSONLReader(f)
	case live:
		return stream.NewJSONLReader(os.Stdin)
	default:
		cfg := gen.DefaultConfig()
		cfg.Seed = seed
		cfg.Scripts = []gen.EventScript{{
			Name:     "samoa tsunami",
			Hashtags: []string{"tsunami", "samoa"},
			Topic:    []string{"tsunami", "samoa", "quake", "warning", "rescue", "coast"},
			URLs:     3, Start: 6 * time.Hour, HalfLife: 8 * time.Hour, Weight: 40,
		}}
		return stream.Limit(stream.FuncSource(gen.New(cfg).Next), n)
	}
}
