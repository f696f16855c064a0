package main

import (
	"log/slog"
	"time"

	"provex/internal/cli"
	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/repl"
	"provex/internal/server"
)

// serveFollower runs provserve as a WAL-shipping read replica: it
// bootstraps from the leader's newest checkpoint, tails its WAL with
// retries and backoff, and gates reads (see the package comment) while
// bootstrapping, lagging, cut off from the leader, or diverged.
func serveFollower(leaderURL, addr, ckpt, walDir string, maxLag uint64, staleAfter time.Duration, pprofOn bool, logEvery time.Duration) {
	reg := metrics.NewRegistry()
	rep, err := repl.NewReplica(leaderURL, core.FullIndexConfig(), repl.ReplicaOptions{
		CheckpointPath: ckpt,
		WALDir:         walDir,
		MaxLag:         maxLag,
		StaleAfter:     staleAfter,
	})
	if err != nil {
		cli.Fatal("follower", err)
	}
	rep.RegisterMetrics(reg)
	rep.Start()

	heartbeat(logEvery, "follower", func() []any {
		st := rep.Health()
		attrs := []any{"ready", st.Ready, "applied", rep.Applied(), "lag", rep.Lag()}
		if !st.Ready {
			attrs = append(attrs, "reason", st.Reason)
		}
		return attrs
	})

	opts := serverOptions(reg, pprofOn, nil)
	opts = append(opts, server.WithHealth(rep.Health))
	slog.Info("follower mode", "leader", leaderURL, "addr", addr,
		"max_lag", maxLag, "stale_after", staleAfter.String())
	serveHTTP(addr, server.New(rep, opts...), nil, func() {
		// Stop drains the apply queue and writes a final checkpoint, so
		// the next start recovers locally instead of re-bootstrapping.
		if err := rep.Stop(); err != nil {
			slog.Error("replica stop", "err", err)
		}
	})
}
