package archive

import (
	"fmt"
	"testing"
	"time"

	"provex/internal/bundle"
	"provex/internal/score"
	"provex/internal/storage"
	"provex/internal/tweet"
)

var (
	base    = time.Date(2009, 9, 20, 0, 0, 0, 0, time.UTC)
	weights = score.DefaultMessageWeights()
)

// topicBundle builds a bundle of n messages about the given topic word.
func topicBundle(id bundle.ID, topic string, n int) *bundle.Bundle {
	b := bundle.New(id)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("%s update number %d #%s", topic, i, topic)
		m := tweet.Parse(tweet.ID(uint64(id)*100+uint64(i)), "u", base.Add(time.Duration(i)*time.Minute), text)
		b.AddScratch(weights, score.NewDoc(m), nil, nil)
	}
	return b
}

func openArchive(t *testing.T) (*Index, *storage.Store) {
	t.Helper()
	st, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	a, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	return a, st
}

func TestNoteAndSearch(t *testing.T) {
	a, st := openArchive(t)
	for id, topic := range map[bundle.ID]string{1: "tsunami", 2: "baseball", 3: "election"} {
		b := topicBundle(id, topic, 4)
		if err := st.Put(b); err != nil {
			t.Fatal(err)
		}
		a.Note(b)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	hits := a.Search([]string{"tsunami"}, 5)
	if len(hits) != 1 || hits[0].ID != 1 {
		t.Fatalf("Search(tsunami) = %v", hits)
	}
	if hits[0].Text != 1 {
		t.Errorf("best hit normalised score = %v, want 1", hits[0].Text)
	}
	if hits[0].LastPost.IsZero() {
		t.Error("LastPost not cached")
	}
	b, err := a.Load(1)
	if err != nil || b.Size() != 4 {
		t.Fatalf("Load = (%v, %v)", b, err)
	}
}

func TestSearchMiss(t *testing.T) {
	a, _ := openArchive(t)
	if hits := a.Search([]string{"anything"}, 5); hits != nil {
		t.Errorf("empty archive returned %v", hits)
	}
}

func TestOpenRecoversExistingStore(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := bundle.ID(1); id <= 5; id++ {
		if err := st.Put(topicBundle(id, "storm", 3)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	a, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5", a.Len())
	}
	if hits := a.Search([]string{"storm"}, 10); len(hits) != 5 {
		t.Errorf("Search over recovered archive = %d hits, want 5", len(hits))
	}
}

func TestNoteSupersede(t *testing.T) {
	a, st := openArchive(t)
	b1 := topicBundle(1, "quake", 2)
	st.Put(b1)
	a.Note(b1)
	// Re-flush the same bundle grown bigger and re-topiced.
	b2 := topicBundle(1, "aftershock", 6)
	st.Put(b2)
	a.Note(b2)
	if a.Len() != 1 {
		t.Fatalf("Len after supersede = %d", a.Len())
	}
	if hits := a.Search([]string{"quake"}, 5); len(hits) != 0 {
		t.Errorf("stale terms still searchable: %v", hits)
	}
	hits := a.Search([]string{"aftershock"}, 5)
	if len(hits) != 1 {
		t.Fatalf("new terms not searchable: %v", hits)
	}
}

func TestSearchRanking(t *testing.T) {
	a, st := openArchive(t)
	// Bundle 1 is entirely about floods; bundle 2 mentions flood once
	// among other topics.
	b1 := topicBundle(1, "flood", 6)
	mixed := bundle.New(2)
	for i, topic := range []string{"flood", "game", "vote", "show", "market", "tour"} {
		text := fmt.Sprintf("%s news item %d #%s", topic, i, topic)
		m := tweet.Parse(tweet.ID(200+i), "u", base.Add(time.Duration(i)*time.Minute), text)
		mixed.AddScratch(weights, score.NewDoc(m), nil, nil)
	}
	st.Put(b1)
	a.Note(b1)
	st.Put(mixed)
	a.Note(mixed)

	hits := a.Search([]string{"flood"}, 5)
	if len(hits) != 2 || hits[0].ID != 1 {
		t.Fatalf("ranking wrong: %v", hits)
	}
	if hits[1].Text >= hits[0].Text {
		t.Errorf("normalised scores not descending: %v", hits)
	}
}
