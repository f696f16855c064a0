package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/query"
)

func smallGen(seed int64) *gen.Generator {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	cfg.MsgsPerDay = 20000
	cfg.Users = 800
	cfg.VocabSize = 900
	cfg.EventsPerDay = 400
	return gen.New(cfg)
}

// The Service contract (ingest and query, submit after stop, concurrent
// queries, cadence, failure surfacing, back-pressure, idle flush) is
// tested once for every backend, durable and memory-only, in
// internal/shard's TestServiceContract, on an in-memory filesystem.
// What stays here is the one Service run on the real one.

func TestPeriodicCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	dopts := DurableOptions{
		CheckpointPath: filepath.Join(dir, "engine.ckpt"),
		WALDir:         filepath.Join(dir, "wal"),
		WALSyncEvery:   64,
	}
	cfg := core.PartialIndexConfig(500)
	d, err := OpenDurable(cfg, nil, nil, dopts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(query.New(d.Engine(), query.DefaultOptions()), Options{CheckpointEvery: 500, Durable: d})
	s.Start()
	g := smallGen(3)
	const n = 2200
	for i := 0; i < n; i++ {
		if err := s.Submit(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// 4 periodic (500,1000,1500,2000) + 1 final on drain.
	if got := s.Checkpoints(); got != 5 {
		t.Errorf("Checkpoints = %d, want 5", got)
	}

	// The final checkpoint alone restores the full ingested state.
	d2, err := OpenDurable(cfg, nil, nil, dopts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := d2.Engine().Snapshot().Messages; got != n {
		t.Errorf("restored messages = %d, want %d", got, n)
	}
	if got := d2.Replayed(); got != 0 {
		t.Errorf("replayed = %d, want 0: the final checkpoint truncates the WAL", got)
	}
	// No stray temp file.
	if _, err := os.Stat(dopts.CheckpointPath + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp checkpoint left behind: %v", err)
	}
}
