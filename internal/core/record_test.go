package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/tweet"
)

// TestRecordsAtSeed1 is an exact work cell of the pool's two forms: on
// seed-1 20 000 messages in an unbounded engine, how many live bundles
// the pool holds as their one message's record, and that it holds every
// other live bundle, and no record, as a Bundle of two messages or
// more. The count is a function of the stream alone.
func TestRecordsAtSeed1(t *testing.T) {
	const (
		n           = 20000
		wantRecords = 4973
	)
	g := gen.New(gen.DefaultConfig())
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	records, bundles := 0, 0
	e.Pool().All(func(r bundle.Ref) {
		switch b := r.Bundle(); {
		case b == nil:
			records++
		case b.Size() < 2:
			t.Errorf("bundle %d of %d message(s) is held as a Bundle", b.ID(), b.Size())
		default:
			bundles++
		}
	})
	held := 0
	e.Pool().Bundles(func(*bundle.Bundle) { held++ })
	t.Logf("%d live bundles: %d records, %d Bundles", e.Pool().Len(), records, bundles)
	if records != wantRecords || held != bundles || records+bundles != e.Pool().Len() {
		t.Errorf("%d records and %d Bundles (%d walked as Bundles) of %d live bundles, want %d records",
			records, bundles, held, e.Pool().Len(), wantRecords)
	}
}

// TestOneMessageCandidatesDoNotAllocate: Eq. 1 scores a candidate held
// as its one message's record through the record itself, so the match
// loop over such candidates allocates nothing, and the probe's winner
// is named by that record's creation event.
func TestOneMessageCandidatesDoNotAllocate(t *testing.T) {
	e := New(FullIndexConfig(), nil, nil)
	var tags []string
	for i := 0; i < 20; i++ {
		tag := fmt.Sprintf("#solo%d", i)
		tags = append(tags, tag)
		e.Insert(msg(tweet.ID(i+1), fmt.Sprintf("user%d", i), "nothing shared "+tag, base.Add(time.Duration(i)*time.Minute)))
	}
	e.Pool().All(func(r bundle.Ref) {
		if r.Bundle() != nil {
			t.Fatalf("bundle %d is held as a Bundle, want its record", r.ID())
		}
	})
	probe := score.NewDoc(msg(100, "prober", "every tag at once "+fmt.Sprint(tags), base.Add(time.Hour)))
	res := e.Probe(probe)
	first := e.Pool().Get(res.Bundle).First()
	if !res.OK || res.FirstMsg != first.ID() || res.Created != first.Date() {
		t.Fatalf("probe %+v, want a winner named by its record %v", res, first)
	}
	scored := e.matchScored.Value()
	if allocs := testing.AllocsPerRun(100, func() { e.Probe(probe) }); allocs != 0 {
		t.Errorf("the Eq. 1 loop over one-message candidates allocates %.1f times", allocs)
	}
	if e.matchScored.Value() == scored {
		t.Error("the probe scored no candidate: the loop is not exercised")
	}
}

// TestRecordFlushStoresTheBundleBytes: a bundle the pool holds as its
// one message's record, flushed on eviction, reaches the store as the
// bytes the Bundle bundle.New and Add build would have written.
func TestRecordFlushStoresTheBundleBytes(t *testing.T) {
	stores := func() (*fsx.MemFS, *storage.Store) {
		fs := fsx.NewMem()
		st, err := storage.Open("store", storage.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return fs, st
	}
	gotFS, gotStore := stores()
	wantFS, wantStore := stores()
	e := New(FullIndexConfig(), gotStore, nil)
	w := e.MessageWeights()
	for i := 1; i <= 3; i++ {
		doc := score.NewDoc(msg(tweet.ID(i), "solo", fmt.Sprintf("alone %d #only%d", i, i), base))
		r := e.pool.Create(doc)
		e.pool.NoteInsert(r, 0)
		e.evict(r, 0, true)
		want := bundle.New(r.ID())
		want.AddScratch(w, doc, nil, nil)
		if err := wantStore.Put(want); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*storage.Store{gotStore, wantStore} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := wantFS.ReadDir("store")
	if err != nil || len(names) == 0 {
		t.Fatalf("store directory: %v, %v", names, err)
	}
	if got, _ := gotFS.ReadDir("store"); !slices.Equal(got, names) {
		t.Fatalf("store files %v, want %v", got, names)
	}
	for _, name := range names {
		got, _ := gotFS.ReadFile("store/" + name)
		want, _ := wantFS.ReadFile("store/" + name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the flushed records stored other bytes than their Bundles", name)
		}
	}
}
