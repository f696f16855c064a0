package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"provex/internal/fsx"
	"provex/internal/score"
	"provex/internal/tweet"
)

func msg(i int) *tweet.Message {
	date := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	return tweet.Parse(tweet.ID(i), fmt.Sprintf("user%d", i%7),
		date, fmt.Sprintf("message %d about #tsunami and http://x.io/%d", i, i))
}

// appendN appends messages [from, to) under sequences from+1..to.
func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := l.Append(uint64(i+1), score.NewDoc(msg(i)).Msg); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// collect replays the log into a slice.
func collect(t *testing.T, l *Log, after uint64) (seqs []uint64, msgs []*tweet.Message) {
	t.Helper()
	err := l.Replay(after, func(seq uint64, m *tweet.Message) error {
		seqs = append(seqs, seq)
		msgs = append(msgs, m)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, msgs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if l2.lastSeq != 20 {
		t.Fatalf("LastSeq = %d", l2.lastSeq)
	}
	seqs, msgs := collect(t, l2, 0)
	if len(seqs) != 20 {
		t.Fatalf("replayed %d records", len(seqs))
	}
	for i, m := range msgs {
		want := msg(i)
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, seqs[i])
		}
		if m.ID != want.ID || m.User != want.User || m.Text != want.Text || m.Date != want.Date {
			t.Fatalf("message %d mismatch: got %+v want %+v", i, m, want)
		}
		if len(m.Hashtags) != len(want.Hashtags) || len(m.URLs) != len(want.URLs) {
			t.Fatalf("message %d indicants not re-extracted: %+v", i, m)
		}
	}
}

func TestReplaySeqFilter(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem, SyncEvery: 1})
	appendN(t, l, 0, 10)
	seqs, _ := collect(t, l, 7)
	if len(seqs) != 3 || seqs[0] != 8 || seqs[2] != 10 {
		t.Fatalf("filtered replay = %v", seqs)
	}
}

func TestAppendRejectsStaleSeq(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem})
	appendN(t, l, 0, 3)
	if err := l.Append(3, score.NewDoc(msg(99)).Msg); err == nil {
		t.Fatal("stale sequence accepted")
	}
}

func TestCrashLosesOnlyUnsyncedTail(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem, SyncEvery: 4})
	appendN(t, l, 0, 10) // records 1..8 synced (two batches), 9..10 pending
	mem.Crash()

	l2, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 8 || seqs[len(seqs)-1] != 8 {
		t.Fatalf("after crash replay = %v, want 1..8", seqs)
	}
	// The log must accept new appends for the lost sequences.
	if err := l2.Append(9, score.NewDoc(msg(8)).Msg); err != nil {
		t.Fatalf("append after crash: %v", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem, SyncEvery: 1})
	appendN(t, l, 0, 5)
	l.Close()

	// Chop the final record mid-payload.
	name := "wal/wal-000001.log"
	data, err := mem.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	mem.WriteFile(name, data[:len(data)-3])

	l2, err := Open("wal", Options{FS: mem, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 4 {
		t.Fatalf("replay after torn tail = %v, want 4 records", seqs)
	}
	if l2.lastSeq != 4 {
		t.Fatalf("LastSeq = %d", l2.lastSeq)
	}
	// Appending over the truncated tail works.
	if err := l2.Append(5, score.NewDoc(msg(4)).Msg); err != nil {
		t.Fatal(err)
	}
	seqs, _ = collect(t, l2, 0)
	if len(seqs) != 5 {
		t.Fatalf("after re-append = %v", seqs)
	}
}

func TestTruncateDiscardsAndRestarts(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem, SyncEvery: 1})
	appendN(t, l, 0, 10)
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l, 0)
	if len(seqs) != 0 {
		t.Fatalf("replay after truncate = %v", seqs)
	}
	// Appends continue with later sequences.
	appendN(t, l, 10, 15)
	seqs, _ = collect(t, l, 10)
	if len(seqs) != 5 || seqs[0] != 11 {
		t.Fatalf("post-truncate replay = %v", seqs)
	}
	l.Close()

	names, _ := mem.ReadDir("wal")
	if len(names) != 1 {
		t.Fatalf("files after truncate = %v, want exactly one", names)
	}
}

func TestStaleFilesFilteredWhenRemoveFails(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	l, _ := Open("wal", Options{FS: ff, SyncEvery: 1})
	appendN(t, l, 0, 6)
	ff.Arm(1, fsx.Fault{}, fsx.OpRemove)
	if err := l.Truncate(); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("truncate err = %v, want injected remove failure", err)
	}
	ff.Disarm()
	// The stale file survived, but its records are at or below the
	// covered sequence, so a replay after seq 6 yields nothing.
	seqs, _ := collect(t, l, 6)
	if len(seqs) != 0 {
		t.Fatalf("stale records leaked: %v", seqs)
	}
	appendN(t, l, 6, 9)
	seqs, _ = collect(t, l, 6)
	if len(seqs) != 3 || seqs[0] != 7 {
		t.Fatalf("replay = %v", seqs)
	}
}

func TestAppendFailureRepairsTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		torn int // bytes of the batch write that land before it fails
	}{{"header", 3}, {"payload", 20}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := fsx.NewMem()
			ff := fsx.NewFault(mem)
			l, _ := Open("wal", Options{FS: ff, SyncEvery: 1})
			appendN(t, l, 0, 5)
			// The write tears, leaving partial garbage bytes at the
			// append position before the error surfaces.
			ff.Arm(1, fsx.Fault{TornBytes: tc.torn}, fsx.OpWrite)
			if err := l.Append(6, score.NewDoc(msg(5)).Msg); !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("append err = %v, want injected write failure", err)
			}
			ff.Disarm()
			// The tail was repaired: the retried append lands at a clean
			// record boundary, so nothing behind it is lost to a CRC
			// mismatch at the garbage.
			appendN(t, l, 5, 10)
			l.Close()

			l2, err := Open("wal", Options{FS: mem})
			if err != nil {
				t.Fatal(err)
			}
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 10 || seqs[9] != 10 {
				t.Fatalf("replay = %v, want 1..10 with no drop after the torn append", seqs)
			}
		})
	}
}

// TestShortBatchWriteDropsBatch: a batch lands whole or not at all. A
// write that comes up short in the middle of a 64-record batch — whole
// records and a partial one on disk — must leave the log ending at the
// previous sync, in memory and on disk, and later batches must land
// cleanly behind it.
func TestShortBatchWriteDropsBatch(t *testing.T) {
	for _, resume := range []bool{false, true} {
		mem := fsx.NewMem()
		ff := fsx.NewFault(mem)
		l, _ := Open("wal", Options{FS: ff, SyncEvery: 64})
		appendN(t, l, 0, 64) // one full batch: written and synced
		syncedSize := l.Size()
		appendN(t, l, 64, 127)
		ff.Arm(1, fsx.Fault{TornBytes: int(l.Size()-syncedSize) / 2}, fsx.OpWrite)
		if err := l.Append(128, score.NewDoc(msg(127)).Msg); !errors.Is(err, fsx.ErrInjected) {
			t.Fatalf("append closing the batch: err = %v, want the injected short write", err)
		}
		ff.Disarm()
		if l.lastSeq != 64 || l.SyncedSeq() != 64 || l.Size() != syncedSize {
			t.Fatalf("after the dropped batch: LastSeq %d SyncedSeq %d Size %d, want 64 64 %d",
				l.lastSeq, l.SyncedSeq(), l.Size(), syncedSize)
		}
		want := 64
		if resume {
			appendN(t, l, 64, 130) // the same sequences again, and past the cadence
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			want = 130
		}
		mem.Crash()

		l2, err := Open("wal", Options{FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		seqs, _ := collect(t, l2, 0)
		if len(seqs) != want {
			t.Fatalf("resume=%v: replayed %d records, want %d", resume, len(seqs), want)
		}
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("resume=%v: record %d has sequence %d", resume, i, seq)
			}
		}
	}
}

func TestUnrepairedTailLatchesBroken(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	l, _ := Open("wal", Options{FS: ff, SyncEvery: 4})
	appendN(t, l, 0, 11) // two batches synced, three records in the open one
	// The batch write tears AND the repair truncate fails: the on-disk
	// tail stays torn, so the log must refuse to write past it.
	ff.Arm(1, fsx.Fault{TornBytes: 3, Freeze: true}, fsx.OpWrite, fsx.OpTruncate)
	if err := l.Append(12, score.NewDoc(msg(11)).Msg); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("append err = %v, want injected write failure", err)
	}
	ff.Disarm()
	if err := l.Append(9, score.NewDoc(msg(8)).Msg); err == nil {
		t.Fatal("append accepted on a broken log")
	}
	// Truncate is refused too: sealing the torn file into a non-final
	// position would make the next Open fail outright.
	if err := l.Truncate(); err == nil {
		t.Fatal("truncate accepted on a broken log")
	}
	l.Close()

	// The torn tail sits in the final file, where Open repairs it.
	l2, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 8 {
		t.Fatalf("replay = %v, want records 1..8", seqs)
	}
	if err := l2.Append(9, score.NewDoc(msg(8)).Msg); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestTruncateRetriesAfterFailedStart(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	l, _ := Open("wal", Options{FS: ff, SyncEvery: 1})
	appendN(t, l, 0, 6)
	// The new file's header sync fails mid-Truncate; the half-created
	// file must not block every later Truncate with O_EXCL debris.
	ff.Arm(1, fsx.Fault{}, fsx.OpSync)
	if err := l.Truncate(); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("truncate err = %v, want injected sync failure", err)
	}
	ff.Disarm()
	// The old file is still live for appends, and Truncate works again.
	appendN(t, l, 6, 8)
	if err := l.Truncate(); err != nil {
		t.Fatalf("truncate retry: %v", err)
	}
	appendN(t, l, 8, 10)
	seqs, _ := collect(t, l, 8)
	if len(seqs) != 2 || seqs[0] != 9 {
		t.Fatalf("replay = %v", seqs)
	}
	l.Close()
	names, _ := mem.ReadDir("wal")
	if len(names) != 1 {
		t.Fatalf("files after truncate retry = %v, want exactly one", names)
	}
}

func TestSyncErrorSurfacesOnAppend(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	l, _ := Open("wal", Options{FS: ff, SyncEvery: 4})
	appendN(t, l, 0, 3)
	ff.Arm(1, fsx.Fault{}, fsx.OpSync)
	// The append that closes the batch carries the fsync failure, and
	// the batch — written, but never known durable — is dropped with it.
	if err := l.Append(4, score.NewDoc(msg(3)).Msg); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("append err = %v, want injected fsync failure", err)
	}
	ff.Disarm()
	if l.lastSeq != 0 || l.SyncedSeq() != 0 {
		t.Fatalf("after the failed sync: LastSeq %d SyncedSeq %d, want 0 0", l.lastSeq, l.SyncedSeq())
	}
	appendN(t, l, 0, 4)
	mem.Crash()
	l2, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if seqs, _ := collect(t, l2, 0); len(seqs) != 4 {
		t.Fatalf("replay = %v, want the re-appended 1..4 exactly once", seqs)
	}
}

func TestCrashDuringFileCreationRecovered(t *testing.T) {
	mem := fsx.NewMem()
	l, _ := Open("wal", Options{FS: mem})
	appendN(t, l, 0, 3)
	l.Sync()
	// Simulate the debris of a crashed Truncate: a follow-up file whose
	// magic never made it to disk.
	mem.WriteFile("wal/wal-000002.log", []byte("PRO")) // torn magic
	l2, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatalf("open over stillborn file: %v", err)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 3 {
		t.Fatalf("replay = %v", seqs)
	}
	if err := l2.Append(4, score.NewDoc(msg(3)).Msg); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSealedFileErrors(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	l, _ := Open("wal", Options{FS: ff})
	appendN(t, l, 0, 4)
	// Make file 1 sealed by forcing a truncate whose remove fails, then
	// corrupt a record inside it.
	ff.Arm(1, fsx.Fault{}, fsx.OpRemove)
	_ = l.Truncate()
	ff.Disarm()
	appendN(t, l, 4, 6)
	l.Close()

	data, _ := mem.ReadFile("wal/wal-000001.log")
	data[12] ^= 0x40
	mem.WriteFile("wal/wal-000001.log", data)

	if _, err := Open("wal", Options{FS: mem}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open err = %v, want ErrCorrupt for sealed file", err)
	}
}

// TestGoldenFormat pins the on-disk format across the move to batch
// writes: a log file written by the previous implementation (two writes
// per record) replays here, and the same appends produce the same bytes
// here — so either side reads what the other wrote.
func TestGoldenFormat(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_pr14.wal")
	if err != nil {
		t.Fatal(err)
	}
	mem := fsx.NewMem()
	mem.WriteFile("old/wal-000001.log", golden)
	old, err := Open("old", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	seqs, msgs := collect(t, old, 0)
	if len(seqs) != 10 {
		t.Fatalf("golden file replayed %d records, want 10", len(seqs))
	}
	for i, m := range msgs {
		want := msg(i)
		if seqs[i] != uint64(i+1) || m.ID != want.ID || m.User != want.User || m.Text != want.Text || m.Date != want.Date {
			t.Fatalf("golden record %d = seq %d %+v, want seq %d %+v", i, seqs[i], m, i+1, want)
		}
	}

	l, err := Open("new", Options{FS: mem, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := mem.ReadFile("new/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("the same 10 appends wrote %d bytes that differ from the %d-byte golden file", len(written), len(golden))
	}
}

// discardFile swallows writes and syncs, so an allocation count over
// Append sees the log's own work and not MemFS growing a file.
type discardFile struct{ fsx.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }

// TestAppendZeroAlloc pins the group-commit path at zero allocations
// per record once the batch buffer has reached its working size: no
// per-record payload buffer, no header array escaping to the heap.
func TestAppendZeroAlloc(t *testing.T) {
	l, err := Open("wal", Options{FS: fsx.NewMem(), SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	l.f = discardFile{l.f}
	m := score.NewDoc(msg(1)).Msg
	seq := uint64(0)
	add := func() {
		seq++
		if err := l.Append(seq, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		add()
	}
	if n := testing.AllocsPerRun(640, add); n != 0 {
		t.Errorf("Append allocates %.2f per record, want 0", n)
	}
}

// BenchmarkAppend times one 64-record batch per iteration: 64 encodes,
// one write, one fsync, on MemFS. The log is truncated now and then, as
// checkpoints do, because MemFS copies the whole file on every sync.
func BenchmarkAppend(b *testing.B) {
	l, err := Open("wal", Options{FS: fsx.NewMem(), SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	m := msg(1)
	seq := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			seq++
			if err := l.Append(seq, score.NewDoc(m).Msg); err != nil {
				b.Fatal(err)
			}
		}
		if i%256 == 255 {
			if err := l.Truncate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
