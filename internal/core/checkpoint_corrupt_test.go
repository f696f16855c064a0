package core

// Checkpoint restore under corruption: a truncation sweep over EVERY
// proper prefix of a valid stream, a sweep over every bit of it, and a
// fuzz target over arbitrary bytes. Restore never panics, and every
// truncation and every flipped bit is ErrBadCheckpoint: past the magic
// and the version byte the file is CRC-checked frames, the header's
// counters included.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/recfile"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// ckptFixture builds a small but section-complete checkpoint: live
// bundles in the pool AND a parked flush-retry entry, so every format
// section is exercised by the sweeps.
func ckptFixture(t testing.TB) []byte {
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
	pb.AddScratch(score.DefaultMessageWeights(), score.NewDoc(m), nil, nil)
	e.retryq = append(e.retryq, flushRetry{b: pb, attempts: 3})

	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreNoPanic(t testing.TB, label string, data []byte) (err error) {
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
		for bit := 0; bit < 8; bit++ {
			copy(mut, data)
			mut[i] ^= 1 << bit
			if err := restoreNoPanic(t, "flip", mut); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("flip of bit %d at byte %d/%d: err = %v, want ErrBadCheckpoint",
					bit, i, len(data), err)
			}
		}
	}
}

// ckptFrames splits a checkpoint into its lead (magic and version) and
// its frames, each with its frame header.
func ckptFrames(data []byte) (lead []byte, frames [][]byte) {
	lead, rest := data[:len(ckptMagic)+1], data[len(ckptMagic)+1:]
	for len(rest) > 0 {
		n := recfile.HeaderSize + int(binary.LittleEndian.Uint32(rest))
		frames, rest = append(frames, rest[:n]), rest[n:]
	}
	return lead, frames
}

// FuzzRestoreCheckpoint: arbitrary bytes never panic a restore, every
// refusal is ErrBadCheckpoint, and an accepted input saved again
// restores to the same Stats.
func FuzzRestoreCheckpoint(f *testing.F) {
	data := ckptFixture(f)
	lead, frames := ckptFrames(data)
	f.Add(data)
	f.Add([]byte{})
	f.Add(lead)
	f.Add(data[:len(data)/2])
	f.Add(bytes.Join([][]byte{lead, frames[0]}, nil))
	f.Add(append(bytes.Clone(data), frames[len(frames)-1]...))
	var empty bytes.Buffer
	if err := New(FullIndexConfig(), nil, nil).writeCheckpoint(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("refusal is not ErrBadCheckpoint: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := e.writeCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("an accepted checkpoint saved again does not restore: %v", err)
		}
		if got, want := snapshotComparable(again.Snapshot()), snapshotComparable(e.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("saved again, restores to\n%+v\nnot\n%+v", got, want)
		}
	})
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
	b.AddScratch(score.DefaultMessageWeights(),
		score.NewDoc(tweet.Parse(1, "u", base, "will not flush yet #stuck")), nil, nil)

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	e.evict(b.Ref(), 0, true)
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
	if !stored(st, 1) {
		t.Fatal("parked bundle never reached the store")
	}
	if restored.Snapshot().FlushParked != 0 {
		t.Fatal("queue not empty after drain")
	}
}
