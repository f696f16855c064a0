package pipeline

// The two-stage ingest loop's own guarantees, on the serial backend:
// nothing is applied before its batch is on stable storage, a cadence
// checkpoint is a barrier through both stages, and a failed batch sync
// degrades durability without stopping ingest.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/query"
	"provex/internal/tweet"
	"provex/internal/wal"
)

// openStaged opens a Durable on fs with provserve's batch cap and puts
// a Service over it.
func openStaged(t *testing.T, fs fsx.FS, opts Options) (*Durable, *Service) {
	t.Helper()
	dopts := durableOpts(fs)
	dopts.WALSyncEvery = 64
	d, err := OpenDurable(core.PartialIndexConfig(300), nil, nil, dopts)
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
// gap so a restart recovers everything.
func TestFailedBatchSyncLatchesOnce(t *testing.T) {
	const n = 1000
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	d, s := openStaged(t, ff, Options{})
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
	if got, want := d.WALSyncedSeq(), d.Seq(); got != want || got == 0 {
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
	run := func(feed []*tweet.Message) (*query.Processor, *Service) {
		// An unbounded pool, so Reindex recovers every message's entry.
		d, err := OpenDurable(core.FullIndexConfig(), nil, nil, durableOpts(mem))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		proc := query.New(d.Engine(), query.DefaultOptions())
		proc.Reindex()
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
		return proc, s
	}
	run(msgs)
	// Resume from the checkpoint Stop wrote, and feed the same JSONL
	// again — fresh message values, same IDs.
	proc, s := run(genMessages(34, n))
	if got := s.Ingested(); got != n {
		t.Errorf("Ingested = %d, want %d", got, n)
	}
	if got := proc.DuplicateMessages(); got != n {
		t.Errorf("DuplicateMessages = %d, want %d", got, n)
	}
	if hits := s.SearchMessages(msgs[0].Text, 5); len(hits) == 0 {
		t.Error("message index lost its entries over the re-feed")
	}
}
