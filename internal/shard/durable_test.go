package shard

// Durable sharding: recovery equals per-shard checkpoint + WAL replay
// trimmed to the round ledger's newest consistent cut; acknowledged
// rounds survive crashes exactly; the manifest pins the shard count.

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/tweet"
)

func testDurableOpts(fs fsx.FS) DurableOptions {
	return DurableOptions{
		FS:           fs,
		Dir:          "shards",
		ManifestPath: "manifest.json",
		WALSyncEvery: 1,
	}
}

func feed(t *testing.T, d *Durable, msgs []*tweet.Message) {
	t.Helper()
	for _, m := range msgs {
		if err := d.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesUninterrupted compares d's live bundles, shard by shard,
// with an uninterrupted memory run over msgs at the same (N, B): rounds
// are deterministic, so a recovered state must equal it.
func assertMatchesUninterrupted(t *testing.T, cfg core.Config, opts Options, msgs []*tweet.Message, d *Durable) {
	t.Helper()
	ref, err := New(cfg, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := ref.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	assertPartitionsEqual(t, livePartition(shardEngines(ref)...), livePartition(shardEngines(d.Engine)...))
}

func TestShardedDurableFreshOpenAndReopen(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	opts := Options{Shards: 3, Batch: 32}
	msgs := genMessages(31, 2000)

	d, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:1216])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[1216:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: checkpoints hold the first 1216 (38 aligned rounds), the WALs + ledger the
	// remaining 784.
	d2, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Replayed() != 784 {
		t.Fatalf("Replayed = %d, want 784", d2.Replayed())
	}
	if d2.Global() != 2000 {
		t.Fatalf("recovered Global = %d, want 2000", d2.Global())
	}

	assertMatchesUninterrupted(t, cfg, opts, msgs, d2)
}

func TestShardedCrashRecoversAcknowledgedRounds(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	opts := Options{Shards: 2, Batch: 50}
	msgs := genMessages(37, 1500)

	d, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:600])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// 8 full rounds acknowledged past the barrier, then the process
	// dies with its batch buffer holding 10 unacknowledged messages.
	for _, m := range msgs[600:1010] {
		if err := d.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()

	d2, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Global(); got != 1000 {
		t.Fatalf("recovered Global = %d, want the 1000 acknowledged", got)
	}
	// Every commit leaves all shards at the round's newest date, whoever
	// won that message; replay alone would leave the other shard behind.
	if a, b := d2.ShardEngine(0).Now(), d2.ShardEngine(1).Now(); a != b || a != msgs[999].Date {
		t.Fatalf("recovered shard clocks %v and %v, want both at the last acknowledged message's %v", a, b, msgs[999].Date)
	}
	// Resume exactly at the recovered prefix and finish the stream;
	// the result must match an uninterrupted run.
	feed(t, d2, msgs[1000:])
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	assertMatchesUninterrupted(t, cfg, opts, msgs, d2)
}

// TestShardedBarrierDiskFull fills the disk under a whole barrier, so
// every shard's checkpoint fails, then frees it. The failed barrier
// must cost nothing but itself: later rounds commit, the next barrier
// lands, and a crash after it recovers every acknowledged message.
func TestShardedBarrierDiskFull(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	cfg := core.PartialIndexConfig(300)
	opts := Options{Shards: 3, Batch: 32}
	msgs := genMessages(47, 1600)

	d, err := OpenDurable(cfg, opts, testDurableOpts(ff))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:640])
	ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace, Freeze: true})
	if err := d.Checkpoint(); !errors.Is(err, fsx.ErrNoSpace) {
		t.Fatalf("Checkpoint on a full disk = %v, want the injected ErrNoSpace", err)
	}
	ff.Disarm()
	barriers := d.Checkpoints()

	feed(t, d, msgs[640:1280]) // the parent latched a stale checkpoint error here
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("the barrier after the disk was freed: %v", err)
	}
	if got := d.Checkpoints(); got != barriers+1 {
		t.Fatalf("Checkpoints = %d, want %d", got, barriers+1)
	}
	feed(t, d, msgs[1280:])
	if err := d.Err(); err != nil {
		t.Fatalf("Err after the disk was freed: %v", err)
	}
	mem.Crash()

	d2, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Global(); got != uint64(len(msgs)) {
		t.Fatalf("recovered Global = %d, want all %d acknowledged messages", got, len(msgs))
	}
	assertMatchesUninterrupted(t, cfg, opts, msgs, d2)
}

func TestShardedReshardingRefused(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	d, err := OpenDurable(cfg, Options{Shards: 2, Batch: 16}, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, genMessages(41, 200))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(cfg, Options{Shards: 3, Batch: 16}, testDurableOpts(mem))
	if err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("reopen with different shard count: err = %v, want resharding refusal", err)
	}
}

// TestShardedTornRoundTrimmed forges the worst mid-round crash by
// hand: one shard's WAL holds a synced record of a round the ledger
// never acknowledged. Recovery must trim it, not replay it.
func TestShardedTornRoundTrimmed(t *testing.T) {
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	opts := Options{Shards: 2, Batch: 10}
	msgs := genMessages(43, 510)

	d, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, msgs[:500])
	// Torn round: append straight to shard 0's Durable, bypassing the
	// round protocol — exactly what a crash between phase-2 WAL syncs
	// and the ledger append leaves behind.
	sh := d.shards[0]
	if err := sh.dur.Log(&msgs[500].Post); err != nil {
		t.Fatal(err)
	}
	if err := sh.dur.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	d2, err := OpenDurable(cfg, opts, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Global(); got != 500 {
		t.Fatalf("recovered Global = %d, want 500 (torn record replayed?)", got)
	}
	if got := d2.Engine.Snapshot().Messages; got != 500 {
		t.Fatalf("recovered messages = %d, want 500", got)
	}
}

// TestGoldenLedgerAndManifest pins the two files the sharded barrier
// writes across the move to the shared frame (one write per cut) and
// fsx.WriteAtomic: files written by the previous implementation read
// back here, and the same calls write the same bytes here.
func TestGoldenLedgerAndManifest(t *testing.T) {
	mem := fsx.NewMem()
	golden := map[string][]byte{}
	for _, name := range []string{"ledger", "manifest"} {
		data, err := os.ReadFile("testdata/golden_pr16." + name)
		if err != nil {
			t.Fatal(err)
		}
		golden[name] = data
		mem.WriteFile("old."+name, data)
	}
	cuts := []ledgerCut{{10, []uint64{4, 6}}, {25, []uint64{12, 13}}, {300, []uint64{150, 150}}}
	man := manifest{Version: manifestVersion, Shards: 2, Global: 300, Counts: []uint64{150, 150}}

	old, cut, ok, err := openLedger(mem, "old.ledger")
	if err != nil || !ok || !reflect.DeepEqual(cut, cuts[2]) {
		t.Fatalf("golden ledger: newest cut %+v, ok %v, err %v; want %+v", cut, ok, err, cuts[2])
	}
	old.close()
	if got, ok, err := readManifest(mem, "old.manifest"); err != nil || !ok || !reflect.DeepEqual(got, man) {
		t.Fatalf("golden manifest: %+v, ok %v, err %v; want %+v", got, ok, err, man)
	}

	l, _, _, err := openLedger(mem, "new.ledger")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		if err := l.append(c.global, c.watermarks); err != nil {
			t.Fatal(err)
		}
	}
	l.close()
	if err := writeManifest(mem, "new.manifest", man); err != nil {
		t.Fatal(err)
	}
	for name, want := range golden {
		if got, _ := mem.ReadFile("new." + name); !bytes.Equal(got, want) {
			t.Errorf("the same calls wrote a %s of %d bytes that differs from the %d-byte golden file", name, len(got), len(want))
		}
	}
}
