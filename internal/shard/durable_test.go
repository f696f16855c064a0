package shard

// Durable sharding: recovery equals per-shard checkpoint + WAL replay
// trimmed to the round ledger's newest consistent cut; acknowledged
// rounds survive crashes exactly; the ledger's cut pins the shard count.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/recfile"
	"provex/internal/tweet"
)

func testDurableOpts(fs fsx.FS) DurableOptions {
	return DurableOptions{
		FS:           fs,
		Dir:          "shards",
		ManifestPath: "ledger",
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
	barriers := d.ckpts.Value()

	feed(t, d, msgs[640:1280]) // the parent latched a stale checkpoint error here
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("the barrier after the disk was freed: %v", err)
	}
	if got := d.ckpts.Value(); got != barriers+1 {
		t.Fatalf("%d barriers, want %d", got, barriers+1)
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
	reshard := func(when string) {
		t.Helper()
		_, err := OpenDurable(cfg, Options{Shards: 3, Batch: 16}, testDurableOpts(mem))
		if err == nil || !strings.Contains(err.Error(), "resharding") {
			t.Fatalf("reopen with different shard count %s: err = %v, want resharding refusal", when, err)
		}
	}
	d, err := OpenDurable(cfg, Options{Shards: 2, Batch: 16}, testDurableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, genMessages(41, 200))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reshard("after rounds")
	// The recovery barrier leaves a ledger holding its cut alone.
	if d, err = OpenDurable(cfg, Options{Shards: 2, Batch: 16}, testDurableOpts(mem)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reshard("right after a barrier")
}

// TestShardedManifestFileRefused opens a state whose ManifestPath is a
// file — the JSON manifest an older layout kept there — over shard WALs
// that hold records: the open fails before it wipes anything, and every
// file keeps its bytes.
func TestShardedManifestFileRefused(t *testing.T) {
	manifest, err := os.ReadFile("testdata/golden_pr16.manifest")
	if err != nil {
		t.Fatal(err)
	}
	mem := fsx.NewMem()
	cfg := core.PartialIndexConfig(300)
	opts := Options{Shards: 2, Batch: 16}
	elsewhere := testDurableOpts(mem)
	elsewhere.ManifestPath = "cuts"
	d, err := OpenDurable(cfg, opts, elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, genMessages(41, 200))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	mem.WriteFile("ledger", manifest)
	files := func() map[string]string {
		m := map[string]string{}
		data, _ := mem.ReadFile("ledger")
		m["ledger"] = string(data)
		for i := range opts.Shards {
			dir := filepath.Join(shardDir("shards", i), "wal")
			names, _ := mem.ReadDir(dir)
			for _, name := range names {
				data, _ := mem.ReadFile(filepath.Join(dir, name))
				m[filepath.Join(dir, name)] = string(data)
			}
		}
		return m
	}
	before := files()
	for name, data := range before {
		if len(data) <= recfile.MagicSize {
			t.Fatalf("%s holds no record, so the test checks no wipe", name)
		}
	}

	if _, err := OpenDurable(cfg, opts, testDurableOpts(mem)); !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("open over a manifest file: err = %v, want ENOTDIR", err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused open changed the state: %d files before, %d after", len(before), len(after))
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
	if err := sh.dur.Log(msgs[500]); err != nil {
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

// TestGoldenLedger pins the round ledger's bytes: a cut file written
// once reads back to its newest cut, one more record that does not
// decode is refused, and the same appends on a fresh ledger write the
// file again byte for byte.
func TestGoldenLedger(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_cuts.log")
	if err != nil {
		t.Fatal(err)
	}
	mem := fsx.NewMem()
	mem.WriteFile("old/cut-000001.log", golden)
	cuts := []ledgerCut{{10, []uint64{4, 6}}, {25, []uint64{12, 13}}, {300, []uint64{150, 150}}}

	old, cut, err := openLedger(mem, "old")
	if err != nil || !reflect.DeepEqual(cut, cuts[2]) {
		t.Fatalf("golden ledger: newest cut %+v, err %v; want %+v", cut, err, cuts[2])
	}
	old.close()
	// A cut with a trailing byte is an intact record that does not
	// decode: corruption, never the previous cut.
	bad := append(recfile.BeginFrame(nil), 0x0a, 0x02, 0x04, 0x06, 0x00)
	recfile.EndFrame(bad, 0)
	mem.WriteFile("bad/cut-000001.log", append(golden, bad...))
	if _, _, err := openLedger(mem, "bad"); !errors.Is(err, errCorruptLedger) {
		t.Fatalf("a cut with trailing bytes: err = %v, want errCorruptLedger", err)
	}

	l, _, err := openLedger(mem, "new")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		if err := l.append(c.global, c.watermarks); err != nil {
			t.Fatal(err)
		}
	}
	l.close()
	if got, _ := mem.ReadFile("new/cut-000001.log"); !bytes.Equal(got, golden) {
		t.Errorf("the same appends wrote %d bytes that differ from the %d-byte golden file", len(got), len(golden))
	}
}
