package core

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/tweet"
)

func genSmall(seed int64) *gen.Generator {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	cfg.MsgsPerDay = 20000
	cfg.Users = 1000
	cfg.VocabSize = 1200
	cfg.EventsPerDay = 500
	return gen.New(cfg)
}

// snapshotComparable strips the stage timers (which legitimately differ
// across processes) from a Stats for equality checks.
func snapshotComparable(s Stats) Stats {
	s.PrepareTime, s.MatchTime, s.PlaceTime, s.RefineTime = 0, 0, 0, 0
	return s
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := genSmall(3)
	cfg := PartialIndexConfig(300)
	orig := New(cfg, nil, nil)
	for i := 0; i < 6000; i++ {
		orig.Insert(g.Next())
	}

	var buf bytes.Buffer
	if err := orig.writeCheckpoint(&buf); err != nil {
		t.Fatalf("writeCheckpoint: %v", err)
	}
	restored, err := restoreCheckpoint(cfg, nil, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restoreCheckpoint: %v", err)
	}

	// Snapshots (modulo timers) must match exactly.
	got := snapshotComparable(restored.Snapshot())
	want := snapshotComparable(orig.Snapshot())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot differs after restore:\n got: %+v\nwant: %+v", got, want)
	}
	if restored.Now() != orig.Now() {
		t.Errorf("clock differs: %v vs %v", restored.Now(), orig.Now())
	}

	// Every live bundle survived byte-for-byte and validates.
	orig.pool.All(func(b *bundle.Bundle) {
		r := restored.pool.Get(b.ID())
		if r == nil {
			t.Fatalf("bundle %d missing after restore", b.ID())
		}
		if !bytes.Equal(r.Marshal(), b.Marshal()) {
			t.Fatalf("bundle %d differs after restore", b.ID())
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("restored bundle %d invalid: %v", b.ID(), err)
		}
	})
}

// TestCheckpointResumeEquivalence: a run that checkpoints midway and
// resumes must end in exactly the state of an uninterrupted run — the
// property that makes checkpoints usable at all.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const half, total = 4000, 8000
	cfg := PartialIndexConfig(300)

	// Uninterrupted reference run.
	gRef := genSmall(7)
	ref := New(cfg, nil, nil)
	for i := 0; i < total; i++ {
		ref.Insert(gRef.Next())
	}

	// Interrupted run: ingest half, checkpoint, restore, ingest rest.
	gCkpt := genSmall(7)
	first := New(cfg, nil, nil)
	for i := 0; i < half; i++ {
		first.Insert(gCkpt.Next())
	}
	var buf bytes.Buffer
	if err := first.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := restoreCheckpoint(cfg, nil, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < total; i++ {
		resumed.Insert(gCkpt.Next())
	}

	got := snapshotComparable(resumed.Snapshot())
	want := snapshotComparable(ref.Snapshot())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverged from reference:\n got: %+v\nwant: %+v", got, want)
	}

	// Bundle IDs allocated after resume must not collide: spot-check by
	// comparing the live bundle ID sets.
	refIDs := map[bundle.ID]bool{}
	ref.pool.All(func(b *bundle.Bundle) { refIDs[b.ID()] = true })
	resumed.pool.All(func(b *bundle.Bundle) {
		if !refIDs[b.ID()] {
			t.Errorf("resumed pool holds unexpected bundle %d", b.ID())
		}
	})
}

// TestCheckpointNextIDSurvivesEviction: even when the newest bundle was
// evicted before the snapshot, the restored engine must not reuse its
// ID.
func TestCheckpointNextIDSurvivesEviction(t *testing.T) {
	cfg := PartialIndexConfig(4)
	cfg.Pool.RefineAge = time.Minute
	cfg.Pool.RefineSize = 10 // everything aging is tiny -> deleted
	cfg.Pool.LowerLimit = 4
	cfg.Pool.CheckEvery = 1
	e := New(cfg, nil, nil)
	base := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		text := "standalone" + string(rune('a'+i)) + " #solo" + string(rune('a'+i))
		e.Insert(tweet.Parse(tweet.ID(i+1), "u", base.Add(time.Duration(i)*time.Hour), text))
	}
	nextBefore := e.pool.NextID()

	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreCheckpoint(cfg, nil, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.pool.NextID(); got != nextBefore {
		t.Errorf("NextID = %d after restore, want %d", got, nextBefore)
	}
}

// TestCheckpointRestoredEngineQueries: the rebuilt summary index must
// route new related messages into the restored bundles.
func TestCheckpointRestoredEngineQueries(t *testing.T) {
	base := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	e := New(FullIndexConfig(), nil, nil)
	r1 := e.Insert(tweet.Parse(1, "a", base, "game on tonight #redsox"))

	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2 := restored.Insert(tweet.Parse(2, "b", base.Add(time.Minute), "what a game #redsox"))
	if r2.Created || r2.Bundle != r1.Bundle {
		t.Errorf("restored index failed to route: %+v (original bundle %d)", r2, r1.Bundle)
	}
	if r2.Conn != score.ConnHashtag {
		t.Errorf("conn = %v", r2.Conn)
	}
}

func TestCheckpointCorruption(t *testing.T) {
	g := genSmall(5)
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < 500; i++ {
		e.Insert(g.Next())
	}
	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{'X'}, data[1:]...),
		"bad version": append(append([]byte{}, data[:8]...), append([]byte{99}, data[9:]...)...),
		"truncated":   data[:len(data)/3],
		"payload flip": func() []byte {
			mut := append([]byte{}, data...)
			mut[len(mut)/2] ^= 0xFF
			return mut
		}(),
		"trailing": append(append([]byte{}, data...), 1, 2, 3),
		// The second bundle frame replaced by a copy of the first: every
		// frame is intact, and the pool must not be asked to adopt one ID
		// twice.
		"repeated bundle": func() []byte {
			lead, frames := ckptFrames(data)
			return bytes.Join(append([][]byte{lead, frames[0], frames[1], frames[1]}, frames[3:]...), nil)
		}(),
	}
	for name, c := range cases {
		if _, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(c)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

func TestCheckpointEmptyEngine(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Snapshot().Messages != 0 || restored.Pool().Len() != 0 {
		t.Error("empty engine restore not empty")
	}
}

// TestGoldenCheckpoint pins the v3 checkpoint file: the golden opens,
// and the same inserts save the same bytes. One live bundle only — the
// pool writes its bundles in map order, so two would not be
// reproducible. A v2 file (the layout before the header and the
// records became frames) is refused by its version byte, before any
// of it is decoded.
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_v3.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/golden_v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	e := New(FullIndexConfig(), nil, nil)
	e.Insert(msg(1, "amaliebenjamin", "lester ovation from the crowd #redsox http://bit.ly/Uvcpr", base))
	e.Insert(msg(2, "fan", "RT @amaliebenjamin: lester ovation from the crowd #redsox http://bit.ly/Uvcpr", base.Add(time.Minute)))
	e.Insert(msg(3, "c", "game seven tonight #redsox", base.Add(5*time.Minute)))
	e.Insert(msg(4, "d", "what an inning http://bit.ly/Uvcpr", base.Add(6*time.Minute)))

	mem := fsx.NewMem()
	mem.WriteFile("old.ckpt", golden)
	mem.WriteFile("v2.ckpt", v2)
	old, err := LoadCheckpoint(FullIndexConfig(), nil, nil, mem, "old.ckpt")
	if err != nil {
		t.Fatalf("golden checkpoint: %v", err)
	}
	if got, want := snapshotComparable(old.Snapshot()), snapshotComparable(e.Snapshot()); !reflect.DeepEqual(got, want) || want.BundlesLive != 1 || want.Messages != 4 {
		t.Fatalf("golden checkpoint restored %+v, want %+v", got, want)
	}
	if err := e.SaveCheckpoint(mem, "new.ckpt"); err != nil {
		t.Fatal(err)
	}
	if written, _ := mem.ReadFile("new.ckpt"); !bytes.Equal(written, golden) {
		t.Fatalf("the same 4 inserts saved %d bytes that differ from the %d-byte golden checkpoint", len(written), len(golden))
	}
	if _, err := LoadCheckpoint(FullIndexConfig(), nil, nil, mem, "v2.ckpt"); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("v2 checkpoint: err = %v, want ErrBadCheckpoint naming version 2", err)
	}
}
