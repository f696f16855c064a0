// Command boundedserve is the benchmark's stand-in for a bounded-pool
// provserve: it wires the Bundle Limit engine (Alg. 3 refinement, Eq. 6
// eviction, flush to storage, archive search) behind the same durable
// live-ingest shell and HTTP surface as provserve's serveLive, which
// hard-codes core.FullIndexConfig. Messages arrive as JSONL on stdin.
// It goes away once provserve has a bounded mode of its own.
package main

import (
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/server"
	"provex/internal/storage"
	"provex/internal/stream"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	ckpt := flag.String("ckpt", "", "checkpoint path")
	walDir := flag.String("wal", "", "write-ahead log directory")
	storeDir := flag.String("store", "", "bundle store directory")
	flag.Parse()

	store, err := storage.Open(*storeDir, storage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// The same limits as boundedMaxBundles and boundedMaxBundleSize in
	// ../workload.go, which the in-process replay uses.
	dur, err := pipeline.OpenDurable(core.BundleLimitConfig(2000, 300), store, nil,
		pipeline.DurableOptions{CheckpointPath: *ckpt, WALDir: *walDir, WALSyncEvery: 64})
	if err != nil {
		log.Fatal(err)
	}
	qopts := query.DefaultOptions()
	qopts.IncludeArchive = true
	proc := query.New(dur.Engine(), qopts)
	proc.Reindex()
	reg := metrics.NewRegistry()
	dur.RegisterMetrics(reg)
	proc.Engine().RegisterMetrics(reg)
	svc := pipeline.New(proc, pipeline.Options{Durable: dur, CheckpointEvery: 50_000})
	svc.RegisterMetrics(reg)
	svc.Start()
	go func() {
		src := stream.NewJSONLReader(os.Stdin)
		for {
			m, err := src.Next()
			if err == nil {
				err = svc.Submit(m)
			}
			if errors.Is(err, io.EOF) || errors.Is(err, pipeline.ErrClosed) {
				_ = svc.Stop() // the benchmark kills the process; a clean drain is best effort
				return
			}
			if err != nil {
				log.Fatal(err)
			}
		}
	}()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(svc, server.WithRegistry(reg)),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Fatal(srv.ListenAndServe())
}
