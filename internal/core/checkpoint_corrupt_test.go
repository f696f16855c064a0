package core

// Satellite coverage for checkpoint restore under corruption: a
// truncation sweep over EVERY proper prefix of a valid stream and a
// bit-flip sweep over every byte. Restore must never panic, must report
// ErrBadCheckpoint for every truncation, and any error from a flipped
// byte must still be ErrBadCheckpoint (some flips — e.g. in a header
// counter varint — legitimately decode as a different, valid
// checkpoint, so "no error" is acceptable; a crash never is).

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// ckptFixture builds a small but section-complete checkpoint: live
// bundles in the pool AND a parked flush-retry entry, so every format
// section is exercised by the sweeps.
func ckptFixture(t *testing.T) []byte {
	t.Helper()
	// Keep the stream small: the sweeps are quadratic in its length.
	g := genSmall(11)
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < 40; i++ {
		e.Insert(g.Next())
	}
	// A parked entry with a non-trivial attempt count.
	pb := bundle.New(9001)
	base := time.Date(2009, 9, 29, 12, 0, 0, 0, time.UTC)
	m := tweet.Parse(77, "parked", base, "orphaned flush #retry")
	pb.Add(score.DefaultMessageWeights(), score.NewDoc(m))
	e.retryq = append(e.retryq, flushRetry{b: pb, attempts: 3})

	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreNoPanic(t *testing.T, label string, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: restore panicked: %v", label, r)
		}
	}()
	_, err = restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(data))
	return err
}

func TestCheckpointTruncationSweep(t *testing.T) {
	data := ckptFixture(t)
	for n := 0; n < len(data); n++ {
		if err := restoreNoPanic(t, "truncate", data[:n]); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadCheckpoint",
				n, len(data), err)
		}
	}
}

func TestCheckpointBitFlipSweep(t *testing.T) {
	data := ckptFixture(t)
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(mut, data)
		mut[i] ^= 0xFF
		err := restoreNoPanic(t, "flip", mut)
		if err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at byte %d/%d: err = %v, want nil or ErrBadCheckpoint",
				i, len(data), err)
		}
	}
}

// TestCheckpointParkedRoundTrip: parked flush-retry entries survive a
// checkpoint cycle and flush into the store once it heals.
func TestCheckpointParkedRoundTrip(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	st, err := storage.Open("store", storage.Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FullIndexConfig()
	e := New(cfg, st, nil)

	b := bundle.New(1)
	base := time.Date(2009, 9, 29, 12, 0, 0, 0, time.UTC)
	b.Add(score.DefaultMessageWeights(),
		score.NewDoc(tweet.Parse(1, "u", base, "will not flush yet #stuck")))

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	e.evict(b, 0, true)
	if got := e.Snapshot().FlushParked; got != 1 {
		t.Fatalf("FlushParked = %d after failed flush, want 1", got)
	}
	if !e.Snapshot().Degraded() {
		t.Fatal("engine not degraded with a parked bundle")
	}

	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ff.Disarm()

	restored, err := restoreCheckpoint(cfg, st, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot().FlushParked; got != 1 {
		t.Fatalf("FlushParked = %d after restore, want 1", got)
	}
	if err := restored.DrainFlushRetries(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	if !st.Has(1) {
		t.Fatal("parked bundle never reached the store")
	}
	if restored.Snapshot().FlushParked != 0 {
		t.Fatal("queue not empty after drain")
	}
}
