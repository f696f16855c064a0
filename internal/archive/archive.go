// Package archive makes disk-resident bundles searchable. The paper's
// framework (Figure 4) flushes finished bundles to the storage
// back-end; without a retrieval path those bundles would vanish from
// query results the moment the pool evicts them. Archive maintains a
// full-text index over each flushed bundle's summary terms (keywords,
// hashtags, URLs) so the query module can surface archived bundles next
// to live ones.
//
// The index is memory-resident and rebuilt from the store on Open —
// the store itself stays the single source of durability. Each flush
// is a new document under the next key of a counter (re-flushing a
// bundle supersedes its terms; the old document is tombstoned and
// reclaimed by lazy compaction), so the full-text index never
// resurrects stale terms and equal scores rank by flush order.
package archive

import (
	"sort"
	"time"

	"provex/internal/bundle"
	"provex/internal/storage"
	"provex/internal/termdict"
	"provex/internal/textindex"
	"provex/internal/tweet"
)

// summaryTerms is how many top summary words represent a bundle in the
// archive index.
const summaryTerms = 24

// compactRatio triggers posting compaction when this fraction of
// archive documents are tombstoned supersedes.
const compactRatio = 0.3

// Index is the archived-bundle search index. Not safe for concurrent
// writers; the engine's single-writer ingest discipline covers it.
type Index struct {
	store *storage.Store
	ix    *textindex.Index

	docBundle []bundle.ID // by document key − 1: keys are dense, so the slice is the map; 8 bytes a flush, superseded ones included
	bundleDoc map[bundle.ID]textindex.DocID
	ends      map[bundle.ID]int64 // last-post dates, unix nanoseconds
}

// Open builds an archive index over store, scanning any bundles already
// present (recovery after restart).
func Open(store *storage.Store) (*Index, error) {
	a := &Index{
		store:     store,
		ix:        textindex.New(),
		bundleDoc: make(map[bundle.ID]textindex.DocID),
		ends:      make(map[bundle.ID]int64),
	}
	err := store.Scan(func(b *bundle.Bundle) error {
		a.Note(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Note indexes a freshly flushed bundle. Re-flushing the same bundle ID
// (a supersede) replaces its terms.
func (a *Index) Note(b *bundle.Bundle) {
	if old, ok := a.bundleDoc[b.ID()]; ok {
		a.ix.Delete(old)
	}
	a.docBundle = append(a.docBundle, b.ID())
	doc := textindex.DocID(len(a.docBundle))

	// The summary words are spellings; the text index names each by the
	// keyword-class ID of its spelling, and the bundle's hashtag and URL
	// IDs the same way.
	var terms []termdict.ID
	for _, w := range b.SummaryWords(summaryTerms) {
		terms = append(terms, termdict.Intern(termdict.Keyword, w))
	}
	for _, t := range b.AppendTerms(nil) {
		if c := t.Class(); c == termdict.Tag || c == termdict.URL {
			terms = append(terms, t)
		}
	}
	a.ix.Add(doc, terms)

	a.bundleDoc[b.ID()] = doc
	a.ends[b.ID()] = b.LastDate()

	if a.ix.DeletedRatio() > compactRatio {
		a.ix.Compact()
	}
}

// Len returns the number of archived bundles indexed.
func (a *Index) Len() int { return len(a.bundleDoc) }

// Hit is one archived-bundle search result.
type Hit struct {
	ID       bundle.ID
	Text     float64 // BM25 over summary terms, normalised to [0,1]
	LastPost time.Time
}

// Search returns the top k archived bundles for the term bag, ranked by
// summary-term BM25 with the score normalised against the best hit.
func (a *Index) Search(terms []string, k int) []Hit {
	raw := a.ix.Search(terms, k)
	if len(raw) == 0 {
		return nil
	}
	max := raw[0].Score
	if max <= 0 {
		return nil
	}
	out := make([]Hit, 0, len(raw))
	for _, h := range raw {
		id := a.docBundle[h.Doc-1]
		out = append(out, Hit{ID: id, Text: h.Score / max, LastPost: tweet.Time(a.ends[id])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Text != out[j].Text {
			return out[i].Text > out[j].Text
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Load fetches an archived bundle from the store.
func (a *Index) Load(id bundle.ID) (*bundle.Bundle, error) { return a.store.Get(id) }
