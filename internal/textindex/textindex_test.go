package textindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func buildIndex(docs map[DocID][]string) *Index {
	ix := New()
	ids := make([]DocID, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ix.Add(id, docs[id])
	}
	return ix
}

func hitDocs(hits []Hit) []DocID {
	out := make([]DocID, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

func TestSearchBasic(t *testing.T) {
	ix := buildIndex(map[DocID][]string{
		1: {"yankee", "stadium", "win"},
		2: {"redsox", "lester", "ovation"},
		3: {"yankee", "redsox", "game"},
	})
	hits := ix.Search([]string{"yankee", "redsox"}, 10)
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	if hits[0].Doc != 3 {
		t.Errorf("best hit = doc %d, want 3 (matches both terms)", hits[0].Doc)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("hits not sorted descending: %v", hits)
		}
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	ix := buildIndex(map[DocID][]string{1: {"a"}})
	if hits := ix.Search([]string{"zzz"}, 5); hits != nil {
		t.Errorf("unknown term returned %v", hits)
	}
	if hits := ix.Search(nil, 5); hits != nil {
		t.Errorf("empty query returned %v", hits)
	}
	if hits := ix.Search([]string{"a"}, 0); hits != nil {
		t.Errorf("k=0 returned %v", hits)
	}
}

func TestSearchTermFrequencyMatters(t *testing.T) {
	ix := buildIndex(map[DocID][]string{
		1: {"game", "game", "game", "other"},
		2: {"game", "w1", "w2", "w3"},
	})
	hits := ix.Search([]string{"game"}, 2)
	if len(hits) != 2 || hits[0].Doc != 1 {
		t.Errorf("higher-tf doc should rank first: %v", hits)
	}
}

func TestSearchIDFMatters(t *testing.T) {
	docs := map[DocID][]string{}
	// "common" appears everywhere; "rare" in one doc. A doc matching
	// rare must outrank docs matching only common.
	for i := DocID(1); i <= 20; i++ {
		docs[i] = []string{"common", fmt.Sprintf("filler%d", i)}
	}
	docs[21] = []string{"rare", "filler21b"}
	ix := buildIndex(docs)
	hits := ix.Search([]string{"common", "rare"}, 5)
	if hits[0].Doc != 21 {
		t.Errorf("rare-term doc should rank first, got %v", hits[:2])
	}
}

func TestTopKCut(t *testing.T) {
	docs := map[DocID][]string{}
	for i := DocID(1); i <= 100; i++ {
		docs[i] = []string{"term"}
	}
	ix := buildIndex(docs)
	hits := ix.Search([]string{"term"}, 7)
	if len(hits) != 7 {
		t.Fatalf("k=7 returned %d hits", len(hits))
	}
}

func TestDeleteHidesDoc(t *testing.T) {
	ix := buildIndex(map[DocID][]string{
		1: {"a", "b"},
		2: {"a", "c"},
	})
	ix.Delete(1)
	hits := ix.Search([]string{"a"}, 10)
	if len(hits) != 1 || hits[0].Doc != 2 {
		t.Errorf("deleted doc still surfaces: %v", hits)
	}
	if ix.liveDocs != 1 {
		t.Errorf("liveDocs = %d, want 1", ix.liveDocs)
	}
	// Deleting twice or deleting unknown docs is a no-op.
	ix.Delete(1)
	ix.Delete(999)
	if ix.liveDocs != 1 {
		t.Errorf("no-op deletes changed liveDocs to %d", ix.liveDocs)
	}
}

func TestCompact(t *testing.T) {
	ix := buildIndex(map[DocID][]string{
		1: {"only_in_one"},
		2: {"shared"},
		3: {"shared"},
	})
	ix.Delete(1)
	ix.Delete(2)
	if r := ix.DeletedRatio(); r < 0.6 || r > 0.7 {
		t.Errorf("DeletedRatio = %v, want 2/3", r)
	}
	ix.Compact()
	if n := ix.terms.names.n; n != 1 {
		t.Errorf("terms after compact = %d, want 1", n)
	}
	if st := ix.Stats(); st.Docs != 1 || st.Postings != 1 {
		t.Errorf("Stats after compact = %+v, want 1 doc, 1 posting", st)
	}
	if r := ix.DeletedRatio(); r != 0 {
		t.Errorf("DeletedRatio after compact = %v", r)
	}
	hits := ix.Search([]string{"shared"}, 10)
	if len(hits) != 1 || hits[0].Doc != 3 {
		t.Errorf("post-compact search wrong: %v", hits)
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	ix := New()
	ix.Add(1, []string{"a"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	ix.Add(1, []string{"b"})
}

// TestOrdinal: a key is recognised, and translated to the ordinal its
// Add was given, whether keys have only ever increased (binary search
// over the key column), have arrived out of order (the key → ordinal
// map, built at the first such key), or the document has since been
// tombstoned; Compact renumbers the survivors.
func TestOrdinal(t *testing.T) {
	ix := New()
	check := func(key DocID, wantOrd int, wantHeld bool) {
		t.Helper()
		if ord, held := ix.Ordinal(key); held != wantHeld || (held && ord != wantOrd) {
			t.Errorf("Ordinal(%d) = %d, %v; want %d, %v", key, ord, held, wantOrd, wantHeld)
		}
	}
	check(10, 0, false)
	ix.Add(10, []string{"a"})
	ix.Add(20, nil) // no terms: an ordinal all the same
	ix.Add(30, []string{"a"})
	check(10, 0, true)
	check(20, 1, true)
	check(30, 2, true)
	check(5, 0, false)
	check(25, 0, false)
	check(35, 0, false)
	if ix.byKey != nil {
		t.Error("increasing keys built the key map")
	}
	ix.Add(15, []string{"a"}) // new, and below the highest: out of order
	if len(ix.byKey) != 4 {
		t.Errorf("key map holds %d keys after an out-of-order add, want 4", len(ix.byKey))
	}
	ix.Add(40, []string{"a"})
	check(15, 3, true)
	check(40, 4, true)
	check(10, 0, true)
	check(25, 0, false)
	ix.Delete(30)
	check(30, 2, true)
	if got := hitDocs(ix.Search([]string{"a"}, 10)); !reflect.DeepEqual(got, []DocID{10, 15, 40}) {
		t.Errorf("Search(a) = %v, want [10 15 40] (equal scores, by key)", got)
	}
	ix.Compact()
	check(30, 0, false)
	check(15, 2, true)
	check(40, 3, true)
	if st := ix.Stats(); st.Docs != 4 || st.Postings != 3 {
		t.Errorf("Stats = %+v, want 4 documents and 3 postings", st)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ix.Add(DocID(w*1000+i), []string{"shared", fmt.Sprintf("t%d", i%17)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix.Search([]string{"shared"}, 10)
			}
		}()
	}
	wg.Wait()
	if ix.liveDocs != 2000 {
		t.Errorf("liveDocs = %d, want 2000", ix.liveDocs)
	}
	if len(ix.Search([]string{"shared"}, 3000)) != 2000 {
		t.Error("not all docs searchable after concurrent build")
	}
}

// Property: every hit returned actually contains at least one query
// term, scores are positive, and results never exceed k.
func TestSearchSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := []string{"a", "b", "c", "d", "e", "f", "g"}
		docs := map[DocID][]string{}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var terms []string
			for j := 0; j <= rng.Intn(5); j++ {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
			docs[DocID(i+1)] = terms
		}
		ix := buildIndex(docs)
		query := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		k := 1 + rng.Intn(10)
		hits := ix.Search(query, k)
		if len(hits) > k {
			return false
		}
		for _, h := range hits {
			if h.Score <= 0 {
				return false
			}
			match := false
			for _, dt := range docs[h.Doc] {
				for _, qt := range query {
					if dt == qt {
						match = true
					}
				}
			}
			if !match {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Compact never changes live search results.
func TestCompactEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := []string{"a", "b", "c", "d", "e"}
		ix := New()
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			terms := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
			ix.Add(DocID(i+1), terms)
		}
		for i := 0; i < n/3; i++ {
			ix.Delete(DocID(rng.Intn(n) + 1))
		}
		before := ix.Search(vocab, 50)
		ix.Compact()
		after := ix.Search(vocab, 50)
		return reflect.DeepEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := New()
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%d", i)
	}
	for i := 0; i < 50000; i++ {
		terms := make([]string, 8)
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		ix.Add(DocID(i+1), terms)
	}
	query := []string{"term1", "term42", "term999"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Search(query, 10)
	}
}

// TestAddNoPerDocumentMap pins Add's term counting at no heap map (or
// any other allocation) per document: over a fixed vocabulary the only
// allocations left are the arena's pages and the columns growing,
// which amortise to well under one per Add. The message index pays this
// path once per ingested message.
func TestAddNoPerDocumentMap(t *testing.T) {
	ix := New()
	vocab := []string{"game", "win", "team", "score", "final", "tsunami", "samoa", "quake", "coast", "rescue",
		"warning", "relief", "wave", "island", "alert", "news", "live"}
	terms := make([]string, 12) // a message's keywords and hashtags; more than a stack-allocated map holds
	doc := DocID(0)
	add := func() {
		doc++
		for i := range terms {
			terms[i] = vocab[(int(doc)+i*3)%len(vocab)]
		}
		ix.Add(doc, terms)
	}
	for i := 0; i < 1000; i++ {
		add()
	}
	if n := testing.AllocsPerRun(4000, add); n >= 0.5 {
		t.Errorf("Add allocates %.2f per document, want amortised growth only (< 0.5)", n)
	}
	// Repeated terms still count: "game" twice, "win" once.
	ix.Add(doc+1, []string{"game", "win", "game", ""})
	ord, _ := ix.Ordinal(doc + 1)
	c := ix.pool.cursor(ix.terms.lookup("game"))
	for c.next() {
	}
	if int(c.ord) != ord || c.tf != 2 {
		t.Errorf("last posting of game = ordinal %d tf %d, want ordinal %d (doc %d) with tf 2", c.ord, c.tf, ord, doc+1)
	}
	if ix.terms.lookup("") != nil {
		t.Error("the empty term was indexed")
	}
}
