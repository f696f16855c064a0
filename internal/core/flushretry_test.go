package core

// Degraded-mode behaviour of the flush retry queue: park on Put
// failure, heal on retry, bounded queue, permanent drop latching Err.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// stored reports whether id is in st's directory.
func stored(st *storage.Store, id bundle.ID) bool { return slices.Contains(st.IDs(), id) }

func retryBundle(id bundle.ID) *bundle.Bundle {
	b := bundle.New(id)
	base := time.Date(2009, 9, 29, 12, 0, 0, 0, time.UTC)
	m := tweet.Parse(tweet.ID(id), fmt.Sprintf("user%d", id), base,
		fmt.Sprintf("retry fixture %d #queue", id))
	b.AddScratch(score.DefaultMessageWeights(), score.NewDoc(m), nil, nil)
	return b
}

func faultStore(t *testing.T) (*fsx.FaultFS, *storage.Store) {
	t.Helper()
	ff := fsx.NewFault(fsx.NewMem())
	st, err := storage.Open("store", storage.Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	return ff, st
}

func TestFlushParkAndHeal(t *testing.T) {
	ff, st := faultStore(t)
	e := New(FullIndexConfig(), st, nil)

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	e.evict(retryBundle(1).Ref(), 0, true)
	e.evict(retryBundle(2).Ref(), 0, true)

	s := e.Snapshot()
	if s.FlushParked != 2 {
		t.Fatalf("FlushParked = %d, want 2", s.FlushParked)
	}
	if e.Err() != nil {
		t.Fatalf("transient failure latched Err: %v", e.Err())
	}
	if !s.Degraded() {
		t.Fatal("Degraded() false with parked bundles")
	}

	ff.Disarm()
	if err := e.DrainFlushRetries(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !stored(st, 1) || !stored(st, 2) {
		t.Fatal("parked bundles missing from store after heal")
	}
	s = e.Snapshot()
	if s.FlushParked != 0 || s.FlushRetries == 0 {
		t.Fatalf("after heal: parked=%d retries=%d", s.FlushParked, s.FlushRetries)
	}
	if s.FlushDropped != 0 {
		t.Fatalf("healed queue dropped %d bundles", s.FlushDropped)
	}
}

func TestFlushDropAfterMaxAttempts(t *testing.T) {
	ff, st := faultStore(t)
	cfg := FullIndexConfig()
	cfg.FlushRetry.MaxAttempts = 1
	e := New(cfg, st, nil)

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	e.evict(retryBundle(1).Ref(), 0, true)
	if err := e.DrainFlushRetries(); err == nil {
		t.Fatal("drain against a dead disk returned nil")
	}
	ff.Disarm()

	s := e.Snapshot()
	if s.FlushDropped != 1 {
		t.Fatalf("FlushDropped = %d, want 1", s.FlushDropped)
	}
	if s.FlushParked != 0 {
		t.Fatalf("dropped bundle still parked: %d", s.FlushParked)
	}
	if e.Err() == nil {
		t.Fatal("permanent loss did not latch Err")
	}
	if !s.Degraded() {
		t.Fatal("Degraded() false after a drop")
	}
}

func TestFlushQueueBounded(t *testing.T) {
	ff, st := faultStore(t)
	cfg := FullIndexConfig()
	cfg.FlushRetry.MaxQueue = 3
	e := New(cfg, st, nil)

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	for id := bundle.ID(1); id <= 5; id++ {
		e.evict(retryBundle(id).Ref(), 0, true)
	}
	ff.Disarm()

	s := e.Snapshot()
	if s.FlushParked != 3 {
		t.Fatalf("FlushParked = %d, want cap 3", s.FlushParked)
	}
	if s.FlushDropped != 2 {
		t.Fatalf("FlushDropped = %d, want 2 (overflow)", s.FlushDropped)
	}
	// The newest three survive; the two oldest were sacrificed.
	if err := e.DrainFlushRetries(); err == nil {
		t.Fatal("drain after drops must surface the latched error")
	}
	for id := bundle.ID(3); id <= 5; id++ {
		if !stored(st, id) {
			t.Fatalf("surviving bundle %d not flushed", id)
		}
	}
	if stored(st, 1) || stored(st, 2) {
		t.Fatal("dropped bundle reappeared in store")
	}
}

// TestFlushRetryBackoff: a parked bundle is not retried on every tick —
// attempts are spaced by the exponential schedule.
func TestFlushRetryBackoff(t *testing.T) {
	ff, st := faultStore(t)
	e := New(FullIndexConfig(), st, nil)

	ff.Arm(1, fsx.Fault{Freeze: true}, fsx.OpWrite)
	e.evict(retryBundle(1).Ref(), 0, true)
	// Run many ticks against the dead disk, then count Put attempts.
	for i := 0; i < 64; i++ {
		e.flushTick++
		e.processRetries(false)
	}
	retries := e.Snapshot().FlushRetries
	if retries == 0 {
		t.Fatal("no retries over 64 ticks")
	}
	if retries > 10 {
		t.Fatalf("%d retries over 64 ticks — backoff not applied", retries)
	}
	ff.Disarm()
	if err := e.DrainFlushRetries(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !stored(st, 1) {
		t.Fatal("bundle lost")
	}
}
