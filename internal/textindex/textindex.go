// Package textindex is an embedded full-text search engine — the
// stdlib-only substitute for the Lucene instance the paper used for its
// query support. It provides an incremental inverted index with BM25
// ranking, boolean conjunction, and tombstone deletes.
//
// Documents are opaque to the index: callers supply a uint64 document ID
// and a bag of terms. The provenance query module indexes messages (the
// Figure 1 baseline search) and bundle summaries (the s(q,B) component
// of Eq. 7) in separate Index instances.
package textindex

import (
	"container/heap"
	"math"
	"slices"
	"sync"
)

// DocID identifies an indexed document.
type DocID uint64

// posting records one document's term occurrence count.
type posting struct {
	doc DocID
	tf  uint32
}

// BM25 tuning constants — the standard Robertson defaults.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Index is an incremental inverted index. All methods are safe for
// concurrent use; writes take an exclusive lock.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting // guarded by mu
	docLen   map[DocID]int        // guarded by mu
	deleted  map[DocID]bool       // guarded by mu
	totalLen int64                // sum of live+deleted doc lengths, adjusted on delete; guarded by mu
	liveDocs int                  // guarded by mu
	sorted   []string             // Add's scratch copy of one document's terms; guarded by mu
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]posting),
		docLen:   make(map[DocID]int),
		deleted:  make(map[DocID]bool),
	}
}

// Add indexes doc with the given term bag. Duplicate terms raise term
// frequency. Re-adding an existing live document is a programming error
// and panics; re-adding a deleted document resurrects it under the same
// ID with the new content semantics of appended postings (callers in
// provex never reuse IDs, the panic guards that invariant).
func (ix *Index) Add(doc DocID, terms []string) {
	if len(terms) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[doc]; ok && !ix.deleted[doc] {
		panic("textindex: duplicate Add for live document")
	}
	// Term frequencies by sort + run length over a scratch copy: no
	// per-document map. Which term's posting list is extended first does
	// not matter — each list stays in document order either way.
	ix.sorted = append(ix.sorted[:0], terms...)
	slices.Sort(ix.sorted)
	for i := 0; i < len(ix.sorted); {
		t := ix.sorted[i]
		j := i + 1
		for j < len(ix.sorted) && ix.sorted[j] == t {
			j++
		}
		if t != "" {
			ix.postings[t] = append(ix.postings[t], posting{doc: doc, tf: uint32(j - i)})
		}
		i = j
	}
	delete(ix.deleted, doc)
	ix.docLen[doc] = len(terms)
	ix.totalLen += int64(len(terms))
	ix.liveDocs++
}

// Delete tombstones doc. Postings are filtered lazily at query time;
// Compact reclaims them. Deleting an unknown or already deleted doc is
// a no-op.
func (ix *Index) Delete(doc DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docLen[doc]; !ok || ix.deleted[doc] {
		return
	}
	ix.deleted[doc] = true
	ix.totalLen -= int64(ix.docLen[doc])
	ix.liveDocs--
}

// Compact removes tombstoned postings and reclaims memory. Amortised
// callers should invoke it when DeletedRatio grows past a threshold.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.deleted) == 0 {
		return
	}
	for t, ps := range ix.postings {
		live := ps[:0]
		for _, p := range ps {
			if !ix.deleted[p.doc] {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			delete(ix.postings, t)
			continue
		}
		ix.postings[t] = live
	}
	for doc := range ix.deleted {
		delete(ix.docLen, doc)
	}
	ix.deleted = make(map[DocID]bool)
}

// Terms returns the vocabulary size (including terms only present in
// tombstoned docs until Compact runs).
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// DeletedRatio reports the fraction of known documents that are
// tombstoned, the Compact trigger signal.
func (ix *Index) DeletedRatio() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(len(ix.deleted)) / float64(len(ix.docLen))
}

// Hit is one ranked search result.
type Hit struct {
	Doc   DocID
	Score float64
}

// Search ranks live documents against the term bag by BM25 and returns
// the top k hits, best first. Documents matching more query terms score
// higher through summation; no coordination factor is applied beyond
// that.
func (ix *Index) Search(terms []string, k int) []Hit {
	if k <= 0 || len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.liveDocs == 0 {
		return nil
	}
	avgdl := float64(ix.totalLen) / float64(ix.liveDocs)
	if avgdl <= 0 {
		avgdl = 1
	}

	// Accumulate BM25 contributions per candidate document.
	scores := make(map[DocID]float64)
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		ps := ix.postings[t]
		if len(ps) == 0 {
			continue
		}
		df := 0
		for _, p := range ps {
			if !ix.deleted[p.doc] {
				df++
			}
		}
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (float64(ix.liveDocs)-float64(df)+0.5)/(float64(df)+0.5))
		for _, p := range ps {
			if ix.deleted[p.doc] {
				continue
			}
			dl := float64(ix.docLen[p.doc])
			tf := float64(p.tf)
			norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgdl))
			scores[p.doc] += idf * norm
		}
	}
	return topK(scores, k)
}

// hitHeap is a min-heap over scores (ties broken by larger DocID so the
// final ascending-score pop order yields deterministic results).
type hitHeap []Hit

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}
func (h hitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x interface{}) { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK selects the k best-scoring hits, best first; ties break toward
// smaller DocID for determinism.
func topK(scores map[DocID]float64, k int) []Hit {
	h := make(hitHeap, 0, k)
	heap.Init(&h)
	for doc, s := range scores {
		if len(h) < k {
			heap.Push(&h, Hit{Doc: doc, Score: s})
			continue
		}
		if s > h[0].Score || (s == h[0].Score && doc < h[0].Doc) {
			h[0] = Hit{Doc: doc, Score: s}
			heap.Fix(&h, 0)
		}
	}
	if len(h) == 0 {
		return nil
	}
	out := make([]Hit, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Hit)
	}
	return out
}
