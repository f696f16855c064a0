package storage

// Failure-path coverage via the fsx fault injector: every case the
// package doc contract names — torn final record (truncated on Open),
// ENOSPC mid-append (Put errors, store recoverable), fsync error on
// rotate (Put errors), corrupt sealed segment (Open errors) — plus the
// crash-during-rotation stillborn-segment case.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/score"
	"provex/internal/tweet"
)

// faultBundle builds a small distinguishable bundle.
func faultBundle(id bundle.ID, n int) *bundle.Bundle {
	b := bundle.New(id)
	base := time.Date(2009, 9, 29, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		m := tweet.Parse(tweet.ID(uint64(id)*1000+uint64(i)), fmt.Sprintf("user%d", i),
			base.Add(time.Duration(i)*time.Minute),
			fmt.Sprintf("bundle %d message %d #fault http://x.io/%d", id, i, i))
		b.Add(score.DefaultMessageWeights(), score.NewDoc(m))
	}
	return b
}

// put stores faultBundle(id, n), which must succeed.
func put(t *testing.T, s *Store, id bundle.ID, n int) {
	t.Helper()
	if err := s.Put(faultBundle(id, n)); err != nil {
		t.Fatalf("put %d: %v", id, err)
	}
}

// putGolden makes the four Puts behind testdata/golden_pr16.bls: three
// bundles, the second superseded.
func putGolden(t *testing.T, s *Store) {
	t.Helper()
	for _, b := range [][2]int{{1, 3}, {2, 2}, {3, 4}, {2, 5}} {
		put(t, s, bundle.ID(b[0]), b[1])
	}
}

func openMem(t *testing.T, fs fsx.FS, opts Options) *Store {
	t.Helper()
	opts.FS = fs
	s, err := Open("store", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestTornFinalRecordTruncatedOnOpen(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{})
	for id := bundle.ID(1); id <= 3; id++ {
		put(t, s, id, 4)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record mid-payload.
	name := "store/seg-000001.bls"
	data, err := mem.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	mem.WriteFile(name, data[:len(data)-5])

	s2 := openMem(t, mem, Options{})
	if s2.Count() != 2 {
		t.Fatalf("recovered %d bundles, want 2 (torn third truncated)", s2.Count())
	}
	if s2.Has(3) {
		t.Fatal("torn bundle 3 still indexed")
	}
	// The tail is truncated: appending works and survives reopen.
	put(t, s2, 4, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openMem(t, mem, Options{})
	if !s3.Has(1) || !s3.Has(2) || !s3.Has(4) {
		t.Fatalf("post-truncate append lost: count=%d", s3.Count())
	}
}

func TestENOSPCMidAppend(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	s := openMem(t, ff, Options{SyncEvery: 1})
	put(t, s, 1, 3)
	// Fail the next Put's write with ENOSPC after the frame header and
	// some payload already landed — a torn append.
	ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace, TornBytes: 20}, fsx.OpWrite)
	err := s.Put(faultBundle(2, 3))
	if !errors.Is(err, fsx.ErrNoSpace) {
		t.Fatalf("Put err = %v, want ENOSPC", err)
	}
	ff.Disarm()
	if s.Has(2) {
		t.Fatal("failed Put left bundle indexed")
	}

	// The store survives after reopen: bundle 1 intact, the torn append
	// truncated away per the recovery contract.
	s.Close()
	s2 := openMem(t, mem, Options{})
	if !s2.Has(1) || s2.Has(2) {
		t.Fatalf("recovery after ENOSPC: has1=%v has2=%v", s2.Has(1), s2.Has(2))
	}
	put(t, s2, 2, 3)
	b, err := s2.Get(2)
	if err != nil || b.Size() != 3 {
		t.Fatalf("get after re-put: %v", err)
	}
}

// The retry path the engine's flush queue depends on: a failed Put
// must leave the open store appendable, with no dangling half-record.
func TestPutRetryAfterTornAppend(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	s := openMem(t, ff, Options{SyncEvery: 1})
	put(t, s, 1, 3)
	// Tear the next Put's write: header and 4 payload bytes land, then error.
	ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace, TornBytes: 12}, fsx.OpWrite)
	if err := s.Put(faultBundle(2, 3)); !errors.Is(err, fsx.ErrNoSpace) {
		t.Fatalf("torn Put err = %v", err)
	}
	ff.Disarm()

	// Retry on the SAME open store — the tail must have been repaired.
	put(t, s, 2, 3)
	put(t, s, 3, 2)
	for id := bundle.ID(1); id <= 3; id++ {
		if b, err := s.Get(id); err != nil || b.ID() != id {
			t.Fatalf("get %d after retry: %v", id, err)
		}
	}
	// And the repaired file is byte-consistent across reopen.
	s.Close()
	s2 := openMem(t, mem, Options{})
	if s2.Count() != 3 {
		t.Fatalf("reopened count = %d", s2.Count())
	}
}

func TestFsyncErrorOnRotate(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	// Tiny segments force a rotation on the second Put; rotation syncs
	// the sealed segment first — fail that fsync.
	s := openMem(t, ff, Options{SegmentSize: 64})
	put(t, s, 1, 3)
	ff.Arm(1, fsx.Fault{}, fsx.OpSync)
	if err := s.Put(faultBundle(2, 3)); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("Put during failing rotate = %v, want injected", err)
	}
	ff.Disarm()
	if s.Has(2) {
		t.Fatal("bundle 2 indexed despite failed rotation")
	}
	// Retry succeeds once the fault clears.
	put(t, s, 2, 3)
}

func TestCorruptSealedSegmentErrorsOnOpen(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{SegmentSize: 64}) // every Put rotates
	for id := bundle.ID(1); id <= 3; id++ {
		put(t, s, id, 4)
	}
	s.Close()
	names, _ := mem.ReadDir("store")
	if len(names) < 2 {
		t.Fatalf("want multiple segments, got %v", names)
	}

	// Flip a payload bit in the FIRST (sealed) segment.
	name := "store/seg-000001.bls"
	data, _ := mem.ReadFile(name)
	data[20] ^= 0x01
	mem.WriteFile(name, data)

	_, err := Open("store", Options{FS: mem})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

func TestCrashAfterUnsyncedPutsLosesOnlyTail(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{SyncEvery: 2})
	for id := bundle.ID(1); id <= 5; id++ {
		put(t, s, id, 2)
	}
	// Puts 1-4 were covered by two fsyncs; put 5 is in the page cache
	// only. Crash without Close.
	mem.Crash()

	s2 := openMem(t, mem, Options{})
	if s2.Count() != 4 {
		t.Fatalf("recovered %d bundles after crash, want 4", s2.Count())
	}
	for id := bundle.ID(1); id <= 4; id++ {
		b, err := s2.Get(id)
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		if b.ID() != id || b.Size() != 2 {
			t.Fatalf("bundle %d corrupt after crash", id)
		}
	}
}

func TestCrashDuringRotationDiscardsStillbornSegment(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{})
	put(t, s, 1, 3)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Fake the debris of a crash mid-rotation: a second segment whose
	// magic never fully landed.
	mem.WriteFile("store/seg-000002.bls", []byte("PRO"))

	s2 := openMem(t, mem, Options{})
	if !s2.Has(1) {
		t.Fatal("bundle 1 lost")
	}
	put(t, s2, 2, 2)
}

func TestSyncFlushesActiveSegment(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{}) // SyncEvery 0: no implicit fsync
	put(t, s, 1, 3)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	s2 := openMem(t, mem, Options{})
	if !s2.Has(1) {
		t.Fatal("synced bundle lost by crash")
	}
}

// TestCompactFailureLeavesStoreIntact arms a fault on every mutating
// operation of Compact in turn. Whichever one fails, the store answers
// exactly as before the call, accepts Put, and a reopen recovers every
// bundle.
func TestCompactFailureLeavesStoreIntact(t *testing.T) {
	for n := int64(1); ; n++ {
		mem := fsx.NewMem()
		ff := fsx.NewFault(mem)
		s := openMem(t, ff, Options{SegmentSize: 600}) // two records a segment: the rewrite rotates
		putGolden(t, s)
		check := func(when string, st *Store, ids ...bundle.ID) {
			t.Helper()
			if st.Count() != len(ids) {
				t.Fatalf("op %d, %s: Count = %d, want %d", n, when, st.Count(), len(ids))
			}
			for _, id := range ids {
				if b, err := st.Get(id); err != nil || b.ID() != id || id == 2 && b.Size() != 5 {
					t.Fatalf("op %d, %s: Get(%d) = %v, %v", n, when, id, b, err)
				}
			}
		}
		ff.Arm(n, fsx.Fault{TornBytes: 5}, fsx.MutatingOps()...)
		err := s.Compact()
		tripped := ff.Tripped()
		ff.Disarm()
		if !tripped {
			if err != nil || n < 10 {
				t.Fatalf("Compact ran %d mutating ops without tripping, err %v", n-1, err)
			}
			check("after a clean compaction", s, 1, 2, 3)
			if s.DeadBytes() != 0 {
				t.Fatalf("DeadBytes after a clean compaction = %d", s.DeadBytes())
			}
			return
		}
		if err == nil {
			t.Fatalf("op %d: Compact swallowed the injected fault", n)
		}
		check("after the failed compaction", s, 1, 2, 3)
		if err := s.Put(faultBundle(4, 2)); err != nil {
			t.Fatalf("op %d: Put after the failed compaction: %v", n, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check("reopened", openMem(t, mem, Options{}), 1, 2, 3, 4)
	}
}

// TestGoldenSegment pins the segment format across the move to the
// shared frame and one write per record: a segment written by the
// previous implementation opens here, and the same Puts write the same
// bytes here.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_pr16.bls")
	if err != nil {
		t.Fatal(err)
	}
	mem := fsx.NewMem()
	mem.WriteFile("store/seg-000001.bls", golden)
	old := openMem(t, mem, Options{})
	if b, err := old.Get(2); err != nil || b.Size() != 5 || old.Count() != 3 || old.DeadBytes() == 0 {
		t.Fatalf("golden segment: Get(2) = %v, %v; Count %d, DeadBytes %d", b, err, old.Count(), old.DeadBytes())
	}
	mem = fsx.NewMem()
	s := openMem(t, mem, Options{})
	putGolden(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if written, _ := mem.ReadFile("store/seg-000001.bls"); !bytes.Equal(written, golden) {
		t.Fatalf("the same 4 Puts wrote %d bytes that differ from the %d-byte golden segment", len(written), len(golden))
	}
}
