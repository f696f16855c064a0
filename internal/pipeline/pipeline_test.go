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

func newService(opts Options) *Service {
	proc := query.New(core.New(core.PartialIndexConfig(500), nil, nil), query.DefaultOptions())
	return New(proc, opts)
}

// The Service contract (ingest and query, submit after stop, concurrent
// queries, cadence, failure surfacing, back-pressure, idle flush) is
// tested once for both backends in internal/shard's TestServiceContract.
// What stays here is the one path only the serial backend has: a plain
// checkpoint file without a WAL.

func TestPeriodicCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "engine.ckpt")
	s := newService(Options{CheckpointEvery: 500, CheckpointPath: ckpt})
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
	// 4 periodic (500,1000,1500,2000) + 1 final on drain.
	if got := s.Checkpoints(); got != 5 {
		t.Errorf("Checkpoints = %d, want 5", got)
	}

	// The final checkpoint restores to the full ingested state.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := core.RestoreCheckpoint(core.PartialIndexConfig(500), nil, nil, f)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := restored.Snapshot().Messages; got != n {
		t.Errorf("restored messages = %d, want %d", got, n)
	}
	// No stray temp file.
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp checkpoint left behind: %v", err)
	}
}
