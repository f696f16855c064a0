package pipeline

// Durable layer: recovery equals checkpoint + WAL replay, acknowledged
// messages survive crashes, and the Service integration keeps the same
// guarantees under concurrent ingest.

import (
	"testing"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/query"
	"provex/internal/storage"
	"provex/internal/tweet"
)

func durableOpts(fs fsx.FS) DurableOptions {
	return DurableOptions{
		FS:             fs,
		CheckpointPath: "engine.ckpt",
		WALDir:         "wal",
		WALSyncEvery:   1,
	}
}

// feed logs and applies msgs on d, log first as the Service's stages do;
// at WALSyncEvery 1 every message is durable when feed returns.
func feed(t *testing.T, d *Durable, msgs []*tweet.Message) {
	t.Helper()
	for _, m := range msgs {
		if err := d.Log(m); err != nil {
			t.Fatal(err)
		}
		d.Engine().Insert(m)
	}
}

// genMessages pre-renders a deterministic stream.
func genMessages(seed int64, n int) []*tweet.Message {
	g := smallGen(seed)
	msgs := make([]*tweet.Message, n)
	for i := range msgs {
		msgs[i] = g.Next()
	}
	return msgs
}

func TestDurableFreshOpenAndReopen(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	msgs := genMessages(21, 2000)

	d, err := OpenDurable(cfg, nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:1200])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[1200:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: checkpoint holds 1200, the WAL the remaining 800.
	d2, err := OpenDurable(cfg, nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replayed() != 800 {
		t.Fatalf("Replayed = %d, want 800", d2.Replayed())
	}
	if got := d2.Engine().Snapshot().Messages; got != 2000 {
		t.Fatalf("recovered Messages = %d, want 2000", got)
	}

	// Reference: uninterrupted run over the same stream.
	ref := core.New(cfg, nil, nil)
	for _, m := range msgs {
		ref.Insert(m)
	}
	assertEnginesEqual(t, ref, d2.Engine())
}

func TestDurableCrashRecoversAcknowledged(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	msgs := genMessages(22, 1500)

	d, err := OpenDurable(cfg, nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:600])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[600:1000])
	// No Close, no checkpoint: the process dies. WALSyncEvery=1 means
	// every acknowledged message is durable.
	mem.Crash()

	d2, err := OpenDurable(cfg, nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Engine().Snapshot().Messages; got != 1000 {
		t.Fatalf("recovered Messages = %d, want all 1000 acknowledged", got)
	}
	// Resume exactly where the recovered state says and finish the
	// stream; the result must match an uninterrupted run.
	feed(t, d2, msgs[1000:])
	ref := core.New(cfg, nil, nil)
	for _, m := range msgs {
		ref.Insert(m)
	}
	assertEnginesEqual(t, ref, d2.Engine())
}

// TestCheckpointResyncsSeqAfterFailedLog: a failed WAL append in
// degraded mode (message applied to the engine but never logged) must
// not leave WAL sequences lagging engine ordinals past the next
// checkpoint — otherwise recovery's Replay(afterSeq = checkpoint count)
// filters out acknowledged, successfully-logged later messages.
func TestCheckpointResyncsSeqAfterFailedLog(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	cfg := core.PartialIndexConfig(300)
	msgs := genMessages(24, 40)

	d, err := OpenDurable(cfg, nil, nil, durableOpts(ff))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:20])
	// Degraded-mode step, exactly as Service.apply does it: the WAL
	// append fails (torn write, tail repaired) but the message still
	// enters the engine — in memory only, not crash-safe.
	ff.Arm(1, fsx.Fault{TornBytes: 3}, fsx.OpWrite)
	if err := d.Log(msgs[20]); err == nil {
		t.Fatal("Log succeeded despite injected write fault")
	}
	ff.Disarm()
	d.Engine().Insert(msgs[20])

	feed(t, d, msgs[21:30])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything after the checkpoint is logged successfully and
	// acknowledged, so it must survive a crash.
	feed(t, d, msgs[30:])
	mem.Crash()

	d2, err := OpenDurable(cfg, nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replayed() != 10 {
		t.Fatalf("Replayed = %d, want all 10 post-checkpoint messages", d2.Replayed())
	}
	if got := d2.Engine().Snapshot().Messages; got != 40 {
		t.Fatalf("recovered Messages = %d, want 40", got)
	}
}

// TestDurableServiceIntegration: the concurrent Service with a Durable
// attached WAL-logs every applied message and checkpoints on cadence,
// so a kill between checkpoints recovers everything the writer applied.
func TestDurableServiceIntegration(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	msgs := genMessages(23, 3000)

	st, err := storage.Open("store", storage.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(cfg, st, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	proc := query.New(d.Engine(), query.DefaultOptions())
	svc := New(proc, Options{Durable: d, CheckpointEvery: 1000})
	svc.Start()
	for _, m := range msgs {
		if err := svc.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if svc.Checkpoints() == 0 {
		t.Fatal("no checkpoints written")
	}
	// Stop's final checkpoint truncated the WAL.
	if d.LogSize() > 16 {
		t.Fatalf("WAL not truncated after final checkpoint: %d bytes", d.LogSize())
	}
	d.Close()

	// Crash (discard anything unsynced) and recover.
	mem.Crash()
	st2, err := storage.Open("store", storage.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(cfg, st2, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Engine().Snapshot().Messages; got != int64(len(msgs)) {
		t.Fatalf("recovered Messages = %d, want %d", got, len(msgs))
	}

	refStore, _ := storage.Open("refstore", storage.Options{FS: fsx.NewMem()})
	ref := core.New(cfg, refStore, nil)
	for _, m := range msgs {
		ref.Insert(m)
	}
	assertEnginesEqual(t, ref, d2.Engine())
	assertStoresEqual(t, refStore, st2)
}

// assertEnginesEqual compares the deterministic portion of two engines:
// message/edge counters, pool statistics, live bundle bytes and the
// bundle ID watermark. Flush/timer stats legitimately differ.
func assertEnginesEqual(t *testing.T, want, got *core.Engine) {
	t.Helper()
	ws, gs := want.Snapshot(), got.Snapshot()
	if ws.Messages != gs.Messages || ws.EdgesCreated != gs.EdgesCreated {
		t.Fatalf("counters differ: messages %d/%d edges %d/%d",
			gs.Messages, ws.Messages, gs.EdgesCreated, ws.EdgesCreated)
	}
	if ws.BundlesCreated != gs.BundlesCreated || ws.BundlesLive != gs.BundlesLive {
		t.Fatalf("bundles differ: created %d/%d live %d/%d",
			gs.BundlesCreated, ws.BundlesCreated, gs.BundlesLive, ws.BundlesLive)
	}
	if ws.Pool != gs.Pool {
		t.Fatalf("pool stats differ:\n got %+v\nwant %+v", gs.Pool, ws.Pool)
	}
	if want.Pool().NextID() != got.Pool().NextID() {
		t.Fatalf("NextID %d, want %d", got.Pool().NextID(), want.Pool().NextID())
	}
	if !want.Now().Equal(got.Now()) {
		t.Fatalf("clock %v, want %v", got.Now(), want.Now())
	}
	mismatches := 0
	want.Pool().All(func(b *bundle.Bundle) {
		g := got.Pool().Get(b.ID())
		if g == nil || string(g.Marshal()) != string(b.Marshal()) {
			mismatches++
		}
	})
	if mismatches > 0 {
		t.Fatalf("%d live bundles differ", mismatches)
	}
}

// assertStoresEqual compares the logical content of two bundle stores.
func assertStoresEqual(t *testing.T, want, got *storage.Store) {
	t.Helper()
	wids, gids := want.IDs(), got.IDs()
	if len(wids) != len(gids) {
		t.Fatalf("store sizes differ: got %d want %d", len(gids), len(wids))
	}
	for _, id := range wids {
		wb, err := want.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.Get(id)
		if err != nil {
			t.Fatalf("bundle %d missing: %v", id, err)
		}
		if string(wb.Marshal()) != string(gb.Marshal()) {
			t.Fatalf("stored bundle %d differs", id)
		}
	}
}
