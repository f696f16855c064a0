package pipeline

// The two-stage ingest loop's own guarantees, on the serial backend:
// nothing is applied before its batch is on stable storage, a batch is
// what the queue held and costs one fsync, a cadence checkpoint is a
// barrier through both stages, and a failed batch sync degrades
// durability without stopping ingest.

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/promtext"
	"provex/internal/query"
	"provex/internal/tweet"
	"provex/internal/wal"
)

// openStaged opens a Durable on fs as provserve does, syncing only
// when the log stage closes a batch, and puts a Service over it.
func openStaged(t *testing.T, fs fsx.FS, opts Options) (*Durable, *Service) {
	t.Helper()
	d, err := OpenDurable(core.PartialIndexConfig(300), nil, nil, DurableOptions{
		FS: fs, CheckpointPath: "engine.ckpt", WALDir: "wal",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Durable = d
	return d, New(query.New(d.Engine(), query.DefaultOptions()), opts)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestApplyAfterSync: whenever the disk dies, everything a reader could
// already have seen is on it. A feeder saturates the queue; at some
// instant the test reads Ingested(), then freezes the disk (no write or
// sync lands any more) and crashes it. Recovery must hold at least the
// messages observed — across batch boundaries, mid-batch, and across
// checkpoint barriers.
func TestApplyAfterSync(t *testing.T) {
	for _, crashAfter := range []int{1, 100, 777, 1500, 2300} {
		mem := fsx.NewMem()
		ff := fsx.NewFault(mem)
		d, s := openStaged(t, ff, Options{Buffer: 256, CheckpointEvery: 700})
		s.Start()

		var feeder sync.WaitGroup
		feeder.Add(1)
		go func() {
			defer feeder.Done()
			g := smallGen(31)
			for s.Submit(g.Next()) == nil {
			}
		}()

		waitFor(t, "the crash point", func() bool { return s.Ingested() >= crashAfter })
		seen := s.Ingested()
		ff.Arm(1, fsx.Fault{Freeze: true})
		_ = s.Stop() // fails on the frozen disk; only ends the goroutines
		feeder.Wait()
		_ = d.Close()
		mem.Crash()

		d2, err := OpenDurable(core.PartialIndexConfig(300), nil, nil, durableOpts(mem))
		if err != nil {
			t.Fatalf("crash after %d: recovery: %v", crashAfter, err)
		}
		if got := int(d2.Engine().Snapshot().Messages); got < seen {
			t.Errorf("crash after %d: recovered %d messages, but %d had been visible to readers", crashAfter, got, seen)
		}
		d2.Close()
	}
}

// scrape renders reg and parses it back, series name → value.
// walSynced reads d's durable WAL watermark as replication does, from a
// ReadWAL batch; asking past every sequence reads no record.
func walSynced(t *testing.T, d *Durable) uint64 {
	t.Helper()
	b, err := d.ReadWAL(math.MaxUint64, wal.Cursor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b.Synced
}

func scrape(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	series, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestOneFsyncPerDrainedBatch: a batch is whatever the queue held, so
// a full queue lands as one batch — one WAL write and fsync, one batch
// handed to the writer — however many messages it holds. Counted, not
// timed: the messages are all queued before the log stage starts.
func TestOneFsyncPerDrainedBatch(t *testing.T) {
	const n = 1000
	d, s := openStaged(t, fsx.NewMem(), Options{Buffer: n})
	defer d.Close()
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)
	s.RegisterMetrics(reg)
	for _, m := range genMessages(35, n) {
		if err := s.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	waitFor(t, "the queue applied", func() bool { return s.Ingested() == n })
	series := scrape(t, reg)
	if got := series["provex_wal_fsync_seconds_count"]; got != 1 {
		t.Errorf("%d queued messages took %v fsyncs, want 1", n, got)
	}
	if got := series["provex_pipeline_batch_size_count"]; got != 1 {
		t.Errorf("%d queued messages went over in %v batches, want 1", n, got)
	}
	if got := walSynced(t, d); got != n {
		t.Errorf("WAL synced to %d, want %d", got, n)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectLogSyncCadence: a caller that drives Durable.Log itself
// gets the cadence it opened the log with — WALSyncEvery n syncs on
// every n-th Log, 0 on SyncWAL alone.
func TestDirectLogSyncCadence(t *testing.T) {
	for _, tc := range []struct {
		every       int
		fsyncs      float64 // after 130 Logs
		syncedAfter uint64
	}{{64, 2, 128}, {0, 0, 0}} {
		d, err := OpenDurable(core.PartialIndexConfig(300), nil, nil, DurableOptions{
			FS: fsx.NewMem(), CheckpointPath: "engine.ckpt", WALDir: "wal", WALSyncEvery: tc.every,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		d.RegisterMetrics(reg)
		for _, m := range genMessages(36, 130) {
			if err := d.Log(m); err != nil {
				t.Fatal(err)
			}
		}
		if got := scrape(t, reg)["provex_wal_fsync_seconds_count"]; got != tc.fsyncs {
			t.Errorf("WALSyncEvery %d: %v fsyncs after 130 Logs, want %v", tc.every, got, tc.fsyncs)
		}
		if got := walSynced(t, d); got != tc.syncedAfter {
			t.Errorf("WALSyncEvery %d: synced to %d after 130 Logs, want %d", tc.every, got, tc.syncedAfter)
		}
		if err := d.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		if got := scrape(t, reg)["provex_wal_fsync_seconds_count"]; got != tc.fsyncs+1 {
			t.Errorf("WALSyncEvery %d: %v fsyncs after SyncWAL, want %v", tc.every, got, tc.fsyncs+1)
		}
		if got := walSynced(t, d); got != 130 {
			t.Errorf("WALSyncEvery %d: synced to %d after SyncWAL, want 130", tc.every, got)
		}
		d.Close()
	}
}

// renameHook runs a callback after every successful rename — the
// instant a checkpoint becomes the durable one.
type renameHook struct {
	fsx.FS
	after func()
}

func (h renameHook) Rename(oldpath, newpath string) error {
	err := h.FS.Rename(oldpath, newpath)
	if err == nil {
		h.after()
	}
	return err
}

// TestCheckpointBarrier: under a saturated feed the log stage runs
// ahead of the writer, yet at the instant each cadence checkpoint lands
// the WAL must hold exactly the applied prefix — nothing logged beyond
// the checkpoint that the truncation behind it would throw away. Five
// times the cadence gives five checkpoints, counted from the recovered
// state after a restart.
func TestCheckpointBarrier(t *testing.T) {
	const every = 500
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	var d *Durable
	landed := 0
	hook := renameHook{FS: ff, after: func() {
		landed++
		covered := uint64(d.Engine().Snapshot().Messages)
		if covered != uint64(landed*every) {
			t.Errorf("checkpoint %d covers %d messages, want %d", landed, covered, landed*every)
		}
		tail, err := d.ReadWAL(covered, wal.Cursor{}, 0)
		if err != nil || len(tail.Records) != 0 || tail.Synced != covered {
			t.Errorf("checkpoint %d: WAL holds %d records past it (synced to %d, want %d), err %v",
				landed, len(tail.Records), tail.Synced, covered, err)
		}
	}}
	d, s := openStaged(t, hook, Options{CheckpointEvery: every})
	s.Start()
	g := smallGen(32)
	for i := 0; i < 5*every; i++ {
		if err := s.Submit(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the fifth checkpoint", func() bool { return s.Checkpoints() == 5 })
	for i := 0; i < every/2; i++ {
		if err := s.Submit(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the tail", func() bool { return s.Ingested() == 5*every+every/2 })
	if got := s.Checkpoints(); got != 5 {
		t.Errorf("Checkpoints = %d after 5.5 cadences, want 5", got)
	}
	// Die without a final checkpoint (Stop's cannot land on a frozen
	// disk): the half cadence is WAL only.
	ff.Arm(1, fsx.Fault{Freeze: true})
	_ = s.Stop()
	_ = d.Close()
	mem.Crash()

	d, s = openStaged(t, mem, Options{CheckpointEvery: every})
	defer d.Close()
	if d.Replayed() != every/2 {
		t.Fatalf("replayed %d messages, want the %d behind the fifth checkpoint", d.Replayed(), every/2)
	}
	// A restarted service owes its first checkpoint a full cadence after
	// what it recovered, not half of one.
	s.Start()
	for i := 0; i < every-1; i++ {
		if err := s.Submit(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the resumed feed", func() bool { return s.Ingested() == every-1 })
	if got := s.Checkpoints(); got != 0 {
		t.Errorf("Checkpoints = %d one message short of the cadence, want 0", got)
	}
	if err := s.Submit(g.Next()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first checkpoint after the restart", func() bool { return s.Checkpoints() == 1 })
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedBatchSyncLatchesOnce: one batch's fsync fails. The batch is
// applied anyway (availability over durability), the failure is latched
// under the "pipeline: wal:" prefix and stays the reported one, every
// later batch is logged normally, and the final checkpoint closes the
// gap so a restart recovers everything. A batch is at most a queueful,
// so a queue of 64 makes at least 16 batches of the 1000 messages and
// the third fsync is certain to be a batch's.
func TestFailedBatchSyncLatchesOnce(t *testing.T) {
	const n = 1000
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	d, s := openStaged(t, ff, Options{Buffer: 64})
	ff.Arm(3, fsx.Fault{}, fsx.OpSync)
	s.Start()
	msgs := genMessages(33, n)
	for _, m := range msgs {
		if err := s.Submit(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every message applied", func() bool { return s.Ingested() == n })
	first := s.Err()
	if first == nil || !strings.HasPrefix(first.Error(), "pipeline: wal:") {
		t.Fatalf("Err = %v, want the latched batch sync failure", first)
	}
	// Batches after the failed one reached the disk: the synced
	// watermark is the last sequence handed out.
	if got, want := walSynced(t, d), d.Seq(); got != want || got == 0 {
		t.Errorf("WAL synced to %d, last logged sequence %d", got, want)
	}
	if err := s.Stop(); err == nil || err.Error() != first.Error() {
		t.Errorf("Stop = %v, want the first failure %v", err, first)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	d2, err := OpenDurable(core.PartialIndexConfig(300), nil, nil, durableOpts(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Engine().Snapshot().Messages; got != n {
		t.Errorf("recovered %d messages, want %d: the final checkpoint covers the unlogged batch", got, n)
	}
}

// TestResumeRefeedSkipsDuplicates: re-feeding a stream onto the state
// that already holds it must not bring the node down. The engine still
// ingests the repeats (deduplication is not its job yet); the message
// index keeps one entry per ID and counts what it skipped.
func TestResumeRefeedSkipsDuplicates(t *testing.T) {
	const n = 400
	mem := fsx.NewMem()
	msgs := genMessages(34, n)
	run := func(feed []*tweet.Message) (*metrics.Registry, *Service) {
		// An unbounded pool, so Reindex recovers every message's entry.
		d, err := OpenDurable(core.FullIndexConfig(), nil, nil, durableOpts(mem))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		proc := query.New(d.Engine(), query.DefaultOptions())
		proc.Reindex()
		reg := metrics.NewRegistry()
		proc.RegisterMetrics(reg)
		s := New(proc, Options{Durable: d})
		s.Start()
		for _, m := range feed {
			if err := s.Submit(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Stop(); err != nil {
			t.Fatal(err)
		}
		return reg, s
	}
	run(msgs)
	// Resume from the checkpoint Stop wrote, and feed the same JSONL
	// again — fresh message values, same IDs.
	reg, s := run(genMessages(34, n))
	if got := s.Ingested(); got != n {
		t.Errorf("Ingested = %d, want %d", got, n)
	}
	if got := scrape(t, reg)["provex_query_duplicate_messages_total"]; got != n {
		t.Errorf("provex_query_duplicate_messages_total = %v, want %d", got, n)
	}
	if hits := s.SearchMessages(msgs[0].Text, 5); len(hits) == 0 {
		t.Error("message index lost its entries over the re-feed")
	}
}
