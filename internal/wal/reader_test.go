package wal

import (
	"errors"
	"sync"
	"testing"

	"provex/internal/fsx"
	"provex/internal/score"
)

// drainBatches reads the whole shippable run in bounded batches via
// cursor resume, asserting contiguity from after+1.
func drainBatches(t *testing.T, l *Log, after uint64, maxBytes int) []uint64 {
	t.Helper()
	var seqs []uint64
	var hint Cursor
	for {
		b, err := l.ReadBatch(after, hint, maxBytes)
		if err != nil {
			t.Fatalf("ReadBatch(after=%d): %v", after, err)
		}
		if len(b.Records) == 0 {
			return seqs
		}
		for _, rec := range b.Records {
			seq, m, err := DecodeRecord(rec)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if seq != after+1 {
				t.Fatalf("sequence jump: got %d want %d", seq, after+1)
			}
			if m == nil || m.ID != 0 && m.User == "" {
				t.Fatalf("decoded junk message at seq %d: %+v", seq, m)
			}
			seqs = append(seqs, seq)
			after = seq
		}
		hint = b.Next
	}
}

func TestReadBatchRoundtrip(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 25)

	b, err := l.ReadBatch(0, Cursor{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 25 || b.Synced != 25 {
		t.Fatalf("got %d records, synced %d", len(b.Records), b.Synced)
	}
	for i, rec := range b.Records {
		seq, m, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want := msg(i)
		if seq != uint64(i+1) || m.ID != want.ID || m.Text != want.Text || m.Date != want.Date {
			t.Fatalf("record %d: seq %d msg %+v", i, seq, m)
		}
	}
	// Caught up: resuming from the cursor yields an empty batch, nil error.
	b2, err := l.ReadBatch(25, b.Next, 1<<20)
	if err != nil || len(b2.Records) != 0 {
		t.Fatalf("tail read: %d records, err %v", len(b2.Records), err)
	}
}

func TestReadBatchByteBudget(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 40)

	// A budget smaller than one record still makes progress (≥1 each).
	seqs := drainBatches(t, l, 0, 1)
	if len(seqs) != 40 {
		t.Fatalf("drained %d records", len(seqs))
	}
	// A mid-size budget yields multi-record batches without loss.
	if got := drainBatches(t, l, 0, 300); len(got) != 40 {
		t.Fatalf("drained %d records at 300B budget", len(got))
	}
}

func TestReadBatchWatermarkBound(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 5)
	if got := l.SyncedSeq(); got != 0 {
		t.Fatalf("synced before fsync = %d", got)
	}
	b, err := l.ReadBatch(0, Cursor{}, 1<<20)
	if err != nil || len(b.Records) != 0 {
		t.Fatalf("unsynced records shipped: %d, err %v", len(b.Records), err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedSeq(); got != 5 {
		t.Fatalf("synced after fsync = %d", got)
	}
	b, err = l.ReadBatch(0, Cursor{}, 1<<20)
	if err != nil || len(b.Records) != 5 {
		t.Fatalf("after sync: %d records, err %v", len(b.Records), err)
	}
}

func TestReadBatchGapAfterTruncate(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 10)
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 15)

	// A reader behind the truncation horizon must get ErrGap, never a
	// silently discontiguous batch.
	if _, err := l.ReadBatch(3, Cursor{}, 1<<20); !errors.Is(err, ErrGap) {
		t.Fatalf("want ErrGap, got %v", err)
	}
	// A reader at the horizon resumes cleanly.
	seqs := drainBatches(t, l, 10, 1<<20)
	if len(seqs) != 5 || seqs[0] != 11 || seqs[4] != 15 {
		t.Fatalf("post-truncate drain: %v", seqs)
	}
}

func TestReadBatchStaleHintFallsBack(t *testing.T) {
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 12)

	for _, hint := range []Cursor{
		{Seg: 99, Off: 64},     // nonexistent segment
		{Seg: 1, Off: 9999},    // offset past the data
		{Seg: 1, Off: 11},      // misaligned mid-record offset
		{Seg: 1, Off: 1 << 40}, // absurd offset
	} {
		b, err := l.ReadBatch(0, hint, 1<<20)
		if err != nil {
			t.Fatalf("hint %+v: %v", hint, err)
		}
		if len(b.Records) != 12 || recordSeq(b.Records[0]) != 1 {
			t.Fatalf("hint %+v: %d records, first %d", hint, len(b.Records), recordSeq(b.Records[0]))
		}
	}
}

func TestReadBatchAcrossStaleSegments(t *testing.T) {
	// When Truncate cannot remove old files, records stay contiguous
	// across the old and new segments; the reader must walk both.
	mem := fsx.NewMem()
	ffs := fsx.NewFault(mem)
	l, err := Open("wal", Options{FS: ffs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 10)
	ffs.Arm(1, fsx.Fault{}, fsx.OpRemove)
	if err := l.Truncate(); err == nil {
		t.Fatal("expected remove failure")
	}
	ffs.Disarm()
	appendN(t, l, 10, 20)

	// Follower mid-way through the stale segment: the run spans files.
	seqs := drainBatches(t, l, 5, 64)
	if len(seqs) != 15 || seqs[0] != 6 || seqs[14] != 20 {
		t.Fatalf("cross-segment drain: %v", seqs)
	}
}

// TestReadBatchConcurrentWriter is the reader-while-writer safety
// proof: run with -race. The reader must observe every record exactly
// once, in order, while the writer appends and fsyncs on a cadence.
func TestReadBatchConcurrentWriter(t *testing.T) {
	const total = 1500
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem, SyncEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := l.Append(uint64(i+1), score.NewDoc(msg(i)).Msg); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
		if err := l.Sync(); err != nil {
			t.Errorf("final sync: %v", err)
		}
	}()

	var after uint64
	var hint Cursor
	for after < total && !t.Failed() {
		b, err := l.ReadBatch(after, hint, 4096)
		if err != nil {
			t.Fatalf("ReadBatch(after=%d): %v", after, err)
		}
		for _, rec := range b.Records {
			seq, _, err := DecodeRecord(rec)
			if err != nil {
				t.Fatalf("decode at %d: %v", after, err)
			}
			if seq != after+1 {
				t.Fatalf("sequence jump: got %d want %d", seq, after+1)
			}
			after = seq
		}
		hint = b.Next
	}
	wg.Wait()
}
