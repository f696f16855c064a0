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
	"slices"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/recfile"
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
		b.AddScratch(score.DefaultMessageWeights(), score.NewDoc(m), nil, nil)
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

// putGolden makes the four Puts behind testdata/golden_v3.bls (and, in
// bundle codec v1 and v2, testdata/golden_pr16.bls and golden_v2.bls):
// three bundles, the second superseded.
func putGolden(t *testing.T, s *Store) {
	t.Helper()
	for _, b := range [][2]int{{1, 3}, {2, 2}, {3, 4}, {2, 5}} {
		put(t, s, bundle.ID(b[0]), b[1])
	}
}

// stored reports whether id is in the store's directory.
func stored(s *Store, id bundle.ID) bool { return slices.Contains(s.IDs(), id) }

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
	if stored(s2, 3) {
		t.Fatal("torn bundle 3 still indexed")
	}
	// The tail is truncated: appending works and survives reopen.
	put(t, s2, 4, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openMem(t, mem, Options{})
	if !stored(s3, 1) || !stored(s3, 2) || !stored(s3, 4) {
		t.Fatalf("post-truncate append lost: count=%d", s3.Count())
	}
}

func TestENOSPCMidAppend(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	s := openMem(t, ff, Options{})
	put(t, s, 1, 3)
	// Fail the next Put's write with ENOSPC after the frame header and
	// some payload already landed — a torn append.
	ff.Arm(1, fsx.Fault{Err: fsx.ErrNoSpace, TornBytes: 20}, fsx.OpWrite)
	err := s.Put(faultBundle(2, 3))
	if !errors.Is(err, fsx.ErrNoSpace) {
		t.Fatalf("Put err = %v, want ENOSPC", err)
	}
	ff.Disarm()
	if stored(s, 2) {
		t.Fatal("failed Put left bundle indexed")
	}

	// The store survives after reopen: bundle 1 intact, the torn append
	// truncated away per the recovery contract.
	s.Close()
	s2 := openMem(t, mem, Options{})
	if !stored(s2, 1) || stored(s2, 2) {
		t.Fatalf("recovery after ENOSPC: has1=%v has2=%v", stored(s2, 1), stored(s2, 2))
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
	s := openMem(t, ff, Options{})
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
	if stored(s, 2) {
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
	s := openMem(t, mem, Options{})
	for id := bundle.ID(1); id <= 4; id++ {
		put(t, s, id, 2)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	put(t, s, 5, 2)
	// Puts 1-4 were covered by the Sync; put 5 is in the page cache
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
	if !stored(s2, 1) {
		t.Fatal("bundle 1 lost")
	}
	put(t, s2, 2, 2)
}

func TestSyncFlushesActiveSegment(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{}) // Put never fsyncs
	put(t, s, 1, 3)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	s2 := openMem(t, mem, Options{})
	if !stored(s2, 1) {
		t.Fatal("synced bundle lost by crash")
	}
}

// TestGoldenSegment pins the segment format: the golden segment opens,
// every bundle read from it re-encodes to its record, and the same Puts
// write the same bytes.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_v3.bls")
	if err != nil {
		t.Fatal(err)
	}
	mem := fsx.NewMem()
	mem.WriteFile("store/seg-000001.bls", golden)
	old := openMem(t, mem, Options{})
	// Four records, three live: the superseded one is not counted.
	if b, err := old.Get(2); err != nil || b.Size() != 5 || old.Count() != 3 || old.LiveBytes() >= int64(len(golden)-recfile.MagicSize) {
		t.Fatalf("golden segment: Get(2) = %v, %v; Count %d, LiveBytes %d of %d", b, err, old.Count(), old.LiveBytes(), len(golden))
	}
	for _, id := range old.IDs() {
		b, err := old.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pos := old.index[id]
		record := golden[pos.offset+recfile.HeaderSize : pos.offset+pos.size()]
		if again := b.AppendMarshal(nil); !bytes.Equal(again, record) {
			t.Fatalf("golden bundle %d re-encodes to %d bytes that differ from its %d-byte record", id, len(again), len(record))
		}
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

// TestOpenRefusesUndecodableActiveSegment: a segment of bundle codec v1
// (the same four Puts, each node carrying its keywords) or v2 (each
// node carrying its edge score) holds intact records this build does
// not decode. That is no torn append, so Open refuses the store, names
// the version, and does not cut the active segment: cutting at the
// first record would drop every bundle in it.
func TestOpenRefusesUndecodableActiveSegment(t *testing.T) {
	for v, name := range map[int]string{1: "golden_pr16.bls", 2: "golden_v2.bls"} {
		old, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		mem := fsx.NewMem()
		mem.WriteFile("store/seg-000001.bls", old)
		if _, err := Open("store", Options{FS: mem}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("Open over a codec v%d segment = %v, want ErrCorrupt naming version %d", v, err, v)
		}
		if after, _ := mem.ReadFile("store/seg-000001.bls"); !bytes.Equal(after, old) {
			t.Fatalf("the refused codec v%d segment changed: %d bytes, was %d", v, len(after), len(old))
		}
	}
}

// TestZeroFilledTailTruncatedOnOpen: a crash can leave the active
// segment grown with zeros past its last record. Those read as empty
// frames with a valid checksum, which no Put writes: they are a torn
// tail, cut away, and every record before them survives.
func TestZeroFilledTailTruncatedOnOpen(t *testing.T) {
	mem := fsx.NewMem()
	s := openMem(t, mem, Options{})
	putGolden(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	name := "store/seg-000001.bls"
	data, _ := mem.ReadFile(name)
	mem.WriteFile(name, append(bytes.Clone(data), make([]byte, 4096)...))
	s2 := openMem(t, mem, Options{})
	if b, err := s2.Get(2); err != nil || b.Size() != 5 || s2.Count() != 3 {
		t.Fatalf("after a zero-filled tail: Get(2) = %v, %v; Count %d", b, err, s2.Count())
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := mem.ReadFile(name); !bytes.Equal(after, data) {
		t.Fatalf("segment is %d bytes after Open, want the %d before the zeros", len(after), len(data))
	}
}
