package main

import (
	"fmt"
	"path/filepath"
	"strconv"
)

// workload is one deployment shape fed one recipe.
type workload struct {
	name   string
	why    string
	recipe string
	// shards is provserve's -shards; 0 means the workload runs the
	// bounded-pool shim instead of provserve.
	shards int
	// lossWindow is how many acknowledged-by-/stats messages a SIGKILL
	// may take with it: the WAL fsyncs every 64 appends on the serial
	// path, and a sharded round (256) plus its ledger record may be in
	// flight on each of the shards.
	lossWindow int
	// bundleTol is the relative tolerance on the pinned bundles_created;
	// 0 demands equality. Sharded rounds close on queue idleness, so
	// their boundaries (and the few bundles decided by intra-round
	// visibility) depend on timing.
	bundleTol float64
}

// workloads are listed in the order runs and reports use. BENCHMARK.json
// lists the leading ones that fit the driver's time cap.
var workloads = []workload{
	{
		name: "steady-serial", recipe: "steady", shards: 1, lossWindow: 64,
		why: "the paper's crawl shape into provserve -shards 1: pipeline.Service, pipeline.Durable, wal and one engine; the reference",
	},
	{
		name: "steady-sharded", recipe: "steady", shards: 2, lossWindow: 1024, bundleTol: 0.02,
		why: "same bytes into provserve -shards 2: all of shard (probe, reduce, commit, ledger, barrier) and none of pipeline.Service",
	},
	{
		name: "storm-serial", recipe: "storm", shards: 1, lossWindow: 64,
		why: "flash crowd of few huge RT-heavy bundles: placement (Alg. 2) and per-message match cost dominate",
	},
	{
		name: "bounded-serial", recipe: "steady", shards: 0, lossWindow: 64,
		why: "steady stream into the BundleLimit(2000, 300) shim: the only workload where pool refine/evict, storage and archive do work",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) bounded() bool { return w.shards == 0 }

// Bounded-pool limits of the shim workload: core.BundleLimitConfig's
// arguments, which boundedserve hard-codes and the replay takes from
// here.
const (
	boundedMaxBundles    = 2000
	boundedMaxBundleSize = 300
)

// binary names the executable the workload runs, relative to the
// build directory.
func (w workload) binary() string {
	if w.bounded() {
		return "boundedserve"
	}
	return "provserve"
}

// args is the server command line for state kept under dir.
func (w workload) args(dir string, port int) []string {
	common := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-ckpt", filepath.Join(dir, "engine.ckpt"),
		"-wal", filepath.Join(dir, "wal"),
	}
	if w.bounded() {
		return append(common, "-store", filepath.Join(dir, "store"))
	}
	return append(common, "-live", "-shards", strconv.Itoa(w.shards), "-log-level", "warn")
}
