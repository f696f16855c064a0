package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/gen"
	"provex/internal/recfile"
	"provex/internal/score"
	"provex/internal/sumindex"
	"provex/internal/termdict"
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
	carried := map[termdict.ID]bool{} // every term the stream carried
	for i := 0; i < 6000; i++ {
		m := g.Next()
		for _, term := range Prepare(m).Doc.Indicants() {
			carried[term] = true
		}
		orig.Insert(m)
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
	orig.pool.All(func(b bundle.Ref) {
		r := restored.pool.Get(b.ID())
		if r.IsZero() {
			t.Fatalf("bundle %d missing after restore", b.ID())
		}
		if (r.Bundle() == nil) != (b.Bundle() == nil) {
			t.Fatalf("bundle %d restored in another form", b.ID())
		}
		if !bytes.Equal(r.AppendMarshal(nil), b.AppendMarshal(nil)) {
			t.Fatalf("bundle %d differs after restore", b.ID())
		}
		if err := r.Expand().Validate(); err != nil {
			t.Fatalf("restored bundle %d invalid: %v", b.ID(), err)
		}
	})

	// The summary index is rebuilt, not stored: restore observes the
	// bundles in ID order, one bundle's messages at a time, so terms
	// reach their lists in another order than ingest, and each must list
	// the same bundles, in every class.
	var classes [termdict.NumClasses]int
	for term := range carried {
		want := orig.index.AppendPostings(nil, term)
		if got := restored.index.AppendPostings(nil, term); !slices.Equal(got, want) {
			t.Fatalf("%s %q lists %v after restore, %v before", term.Class(), termdict.Term(term), got, want)
		}
		if len(want) > 0 {
			classes[term.Class()]++
		}
	}
	for c, n := range classes {
		if n == 0 {
			t.Errorf("no %s term holds a posting: the check covers nothing there", termdict.Class(c))
		}
	}
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
	ref.pool.All(func(b bundle.Ref) { refIDs[b.ID()] = true })
	resumed.pool.All(func(b bundle.Ref) {
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

// withBundleID returns the checkpoint data with the ID of its first
// bundle frame replaced by id, framed and checksummed as a writer would
// have: a checkpoint damage cannot explain.
func withBundleID(t *testing.T, data []byte, id bundle.ID) []byte {
	t.Helper()
	lead, frames := ckptFrames(data)
	payload := frames[1][recfile.HeaderSize:]
	_, n := binary.Uvarint(payload[2:]) // after the codec's magic and version
	buf := append(recfile.BeginFrame(nil), payload[:2]...)
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = append(buf, payload[2+n:]...)
	recfile.EndFrame(buf, 0)
	frames[1] = buf
	return bytes.Join(append([][]byte{lead}, frames...), nil)
}

// TestCheckpointRefusesBundleIDsOutsideTheIndex: a bundle holds IDs 1
// to bundle.MaxID, the summary index's range. A checkpoint whose frames
// and CRCs are intact but which carries a bundle outside that range is
// refused with ErrBadCheckpoint, not a panic.
func TestCheckpointRefusesBundleIDsOutsideTheIndex(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	e.Insert(tweet.Parse(1, "a", base, "game on #redsox"))
	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(withBundleID(t, buf.Bytes(), 1))); err != nil {
		t.Fatalf("the unchanged ID re-framed: %v", err)
	}
	for _, id := range []bundle.ID{0, sumindex.MaxID + 1, 1<<31 + 1, 1 << 40} {
		if _, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(withBundleID(t, buf.Bytes(), id))); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("bundle %d: err = %v, want ErrBadCheckpoint", id, err)
		}
	}
}

// TestCheckpointRefusesBundleOffThePoolsIDs: a shard's pool allocates
// one arithmetic progression of IDs (DESIGN.md §2i), and its table has
// a slot for those only. A correctly framed checkpoint carrying an ID
// off the progression is refused with ErrBadCheckpoint.
func TestCheckpointRefusesBundleOffThePoolsIDs(t *testing.T) {
	cfg := FullIndexConfig()
	cfg.Pool.IDStart, cfg.Pool.IDStride = 2, 3 // shard 1 of 3: 2, 5, 8, ...
	e := New(cfg, nil, nil)
	e.Insert(tweet.Parse(1, "a", base, "game on #redsox"))
	var buf bytes.Buffer
	if err := e.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for id, ok := range map[bundle.ID]bool{1: false, 2: true, 3: false, 4: false, 5: true, 3001: false} {
		_, err := restoreCheckpoint(cfg, nil, nil, bytes.NewReader(withBundleID(t, buf.Bytes(), id)))
		if ok && err != nil {
			t.Errorf("bundle %d, on the progression: %v", id, err)
		}
		if !ok && !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("bundle %d, off the progression: err = %v, want ErrBadCheckpoint", id, err)
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

// TestCheckpointAllocationsFlat: writeCheckpoint encodes every bundle
// straight into its one reused frame buffer (bundle.AppendMarshal), so
// its allocations do not grow with the number of bundles it writes.
func TestCheckpointAllocationsFlat(t *testing.T) {
	at := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC)
	allocs := func(bundles int) float64 {
		e := New(FullIndexConfig(), nil, nil)
		for i := 0; i < bundles; i++ {
			e.Insert(tweet.Parse(tweet.ID(i+1), fmt.Sprintf("user%d", i), at.Add(time.Duration(i)*time.Second),
				fmt.Sprintf("unrelated message #topic%d", i)))
		}
		if got := e.Pool().Len(); got != bundles {
			t.Fatalf("%d messages made %d bundles, want one each", bundles, got)
		}
		return testing.AllocsPerRun(5, func() {
			if err := e.writeCheckpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if large > small {
		t.Errorf("writeCheckpoint allocates %.0f times for 200 bundles and %.0f for 2 000", small, large)
	}
}

// TestGoldenCheckpoint pins the v5 checkpoint file: the golden opens
// and, restored, saves the same bytes, and the same inserts save the
// same bytes. A v2 file (the layout before the header and the records
// became frames), a v3 file (the same frames, but bundle codec v1,
// which stored every node's keywords) and a v4 file (bundle codec v2,
// which stored every node's edge score) are refused by their version
// byte, before any of them is decoded.
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_v5.ckpt")
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
	old, err := LoadCheckpoint(FullIndexConfig(), nil, nil, mem, "old.ckpt")
	if err != nil {
		t.Fatalf("golden checkpoint: %v", err)
	}
	if got, want := snapshotComparable(old.Snapshot()), snapshotComparable(e.Snapshot()); !reflect.DeepEqual(got, want) || want.BundlesLive != 1 || want.Messages != 4 {
		t.Fatalf("golden checkpoint restored %+v, want %+v", got, want)
	}
	if err := old.SaveCheckpoint(mem, "again.ckpt"); err != nil {
		t.Fatal(err)
	}
	if again, _ := mem.ReadFile("again.ckpt"); !bytes.Equal(again, golden) {
		t.Fatalf("the golden checkpoint restored and saved again wrote %d bytes that differ from its %d", len(again), len(golden))
	}
	if err := e.SaveCheckpoint(mem, "new.ckpt"); err != nil {
		t.Fatal(err)
	}
	if written, _ := mem.ReadFile("new.ckpt"); !bytes.Equal(written, golden) {
		t.Fatalf("the same 4 inserts saved %d bytes that differ from the %d-byte golden checkpoint", len(written), len(golden))
	}
	for _, v := range []int{2, 3, 4} {
		name := fmt.Sprintf("golden_v%d.ckpt", v)
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		mem.WriteFile(name, data)
		if _, err := LoadCheckpoint(FullIndexConfig(), nil, nil, mem, name); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("v%d checkpoint: err = %v, want ErrBadCheckpoint naming version %d", v, err, v)
		}
	}
}

// TestCheckpointBytesAreAFunctionOfTheStream: two engines fed the same
// seed-1 20 000 messages write the same checkpoint, byte for byte, and
// a checkpoint restored and written again is the same bytes. The pool
// hands bundles out in ID order and every bundle frame is a function
// of the bundle, so nothing of the process — map order, allocation
// history, term IDs — reaches the file.
func TestCheckpointBytesAreAFunctionOfTheStream(t *testing.T) {
	save := func(e *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.writeCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	run := func() []byte {
		g := gen.New(gen.DefaultConfig())
		e := New(FullIndexConfig(), nil, nil)
		for i := 0; i < 20_000; i++ {
			e.Insert(g.Next())
		}
		return save(e)
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs on one stream wrote %d and %d checkpoint bytes, first differing at byte %d",
			len(first), len(second), firstDiff(first, second))
	}
	restored, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if again := save(restored); !bytes.Equal(again, first) {
		t.Fatalf("checkpoint → restore → checkpoint wrote %d bytes for %d, first differing at byte %d",
			len(again), len(first), firstDiff(first, again))
	}
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
