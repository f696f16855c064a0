package storage

import (
	"errors"
	"os"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/bundle"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/tweet"
)

var msgWeights = score.DefaultMessageWeights()

// makeBundle builds a bundle with n generated messages under the given
// ID, deterministic in (id, n).
func makeBundle(id bundle.ID, n int) *bundle.Bundle {
	cfg := gen.DefaultConfig()
	cfg.Seed = int64(id)
	cfg.MsgsPerDay = 5000
	cfg.Users = 200
	cfg.VocabSize = 500
	cfg.EventsPerDay = 100
	g := gen.New(cfg)
	b := bundle.New(id)
	for i := 0; i < n; i++ {
		m := g.Next()
		b.Add(msgWeights, score.NewDoc(m))
	}
	return b
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	want := makeBundle(7, 12)
	if err := s.Put(want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(7)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.ID() != 7 || got.Size() != 12 {
		t.Errorf("got id=%d size=%d", got.ID(), got.Size())
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded bundle invalid: %v", err)
	}
	if !s.Has(7) || s.Has(8) {
		t.Error("Has wrong")
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestGetMissing(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if _, err := s.Get(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for id := bundle.ID(1); id <= 20; id++ {
		if err := s.Put(makeBundle(id, int(id)%7+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if s2.Count() != 20 {
		t.Fatalf("recovered Count = %d, want 20", s2.Count())
	}
	for id := bundle.ID(1); id <= 20; id++ {
		b, err := s2.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", id, err)
		}
		if b.Size() != int(id)%7+1 {
			t.Errorf("bundle %d size %d, want %d", id, b.Size(), int(id)%7+1)
		}
	}
	// And the store still accepts appends.
	if err := s2.Put(makeBundle(21, 3)); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentSize: 4 << 10})
	for id := bundle.ID(1); id <= 60; id++ {
		if err := s.Put(makeBundle(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := s.segs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	// All bundles remain readable across segments.
	for id := bundle.ID(1); id <= 60; id++ {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
	// Reopen with many segments.
	s.Close()
	s2 := openStore(t, dir, Options{SegmentSize: 4 << 10})
	if s2.Count() != 60 {
		t.Fatalf("recovered Count = %d, want 60", s2.Count())
	}
}

func TestSupersedeAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentSize: 16 << 10})
	for id := bundle.ID(1); id <= 10; id++ {
		if err := s.Put(makeBundle(id, 5)); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede half the bundles with bigger versions.
	for id := bundle.ID(1); id <= 5; id++ {
		if err := s.Put(makeBundle(id, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 10 {
		t.Fatalf("Count = %d, want 10", s.Count())
	}
	if s.DeadBytes() == 0 {
		t.Fatal("superseded records produced no dead bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.DeadBytes() != 0 {
		t.Errorf("DeadBytes after compact = %d", s.DeadBytes())
	}
	for id := bundle.ID(1); id <= 10; id++ {
		b, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after compact: %v", id, err)
		}
		want := 5
		if id <= 5 {
			want = 9
		}
		if b.Size() != want {
			t.Errorf("bundle %d size %d, want %d (latest version)", id, b.Size(), want)
		}
	}
	// Store still writable after compact and survives reopen.
	if err := s.Put(makeBundle(11, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir, Options{SegmentSize: 16 << 10})
	if s2.Count() != 11 {
		t.Fatalf("post-compact reopen Count = %d, want 11", s2.Count())
	}
}

func TestScan(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	for id := bundle.ID(3); id >= 1; id-- {
		if err := s.Put(makeBundle(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	var order []bundle.ID
	err := s.Scan(func(b *bundle.Bundle) error {
		order = append(order, b.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Errorf("Scan order = %v, want ascending IDs", order)
	}
	sentinel := errors.New("stop")
	err = s.Scan(func(*bundle.Bundle) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("Scan error passthrough = %v", err)
	}
}

func TestSyncEvery(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{SyncEvery: 2})
	for id := bundle.ID(1); id <= 5; id++ {
		if err := s.Put(makeBundle(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestEmptyStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	s.Close()
	s2 := openStore(t, dir, Options{})
	if s2.Count() != 0 {
		t.Errorf("empty reopen Count = %d", s2.Count())
	}
}

// Property: any sequence of Put operations (with ID reuse) leaves the
// store returning the latest version of every bundle, before and after
// reopen.
func TestPutSequenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		dir, err := os.MkdirTemp("", "provstore")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir, Options{SegmentSize: 4 << 10})
		if err != nil {
			return false
		}
		latest := map[bundle.ID]int{}
		for i, op := range ops {
			id := bundle.ID(op%5) + 1
			size := i%6 + 1
			if err := s.Put(makeBundle(id, size)); err != nil {
				return false
			}
			latest[id] = size
		}
		check := func(st *Store) bool {
			if st.Count() != len(latest) {
				return false
			}
			for id, size := range latest {
				b, err := st.Get(id)
				if err != nil || b.Size() != size {
					return false
				}
			}
			return true
		}
		if !check(s) {
			return false
		}
		s.Close()
		s2, err := Open(dir, Options{SegmentSize: 4 << 10})
		if err != nil {
			return false
		}
		defer s2.Close()
		return check(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBundleContentSurvivesStore(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	b := bundle.New(77)
	at := time.Date(2009, 9, 30, 1, 2, 3, 0, time.UTC)
	m := tweet.Parse(5, "somebody", at, "exact text #tag http://bit.ly/z")
	b.Add(msgWeights, score.NewDoc(m))
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(77)
	if err != nil {
		t.Fatal(err)
	}
	gm := got.Nodes()[0].Doc.Msg
	if gm.Text != m.Text || gm.User != m.User || gm.Date != at.UnixNano() {
		t.Errorf("content mangled: %+v", gm)
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	bn := makeBundle(1, 20)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Unique IDs so the index grows like production.
		bn2 := makeBundle(bundle.ID(i+2), 1)
		_ = bn2
		if err := s.Put(bn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for id := bundle.ID(1); id <= 100; id++ {
		if err := s.Put(makeBundle(id, 10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(bundle.ID(i%100) + 1); err != nil {
			b.Fatal(err)
		}
	}
}
