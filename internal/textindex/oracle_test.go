package textindex

// The index as it stood before the ordinal/slab rewrite, kept verbatim
// (type and constructor renamed) as the reference the differential and
// fuzz tests compare Search against: 16-byte postings in append-grown
// slices keyed by the caller's 64-bit ID, a length map, a tombstone
// map, scores accumulated in a map. DocID, Hit and the BM25 constants
// are the index's own.

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// posting records one document's term occurrence count.
type posting struct {
	doc DocID
	tf  uint32
}

// oracleIndex is an incremental inverted index. All methods are safe for
// concurrent use; writes take an exclusive lock.
type oracleIndex struct {
	mu       sync.RWMutex
	postings map[string][]posting // guarded by mu
	docLen   map[DocID]int        // guarded by mu
	deleted  map[DocID]bool       // guarded by mu
	totalLen int64                // sum of live+deleted doc lengths, adjusted on delete; guarded by mu
	liveDocs int                  // guarded by mu
	sorted   []string             // Add's scratch copy of one document's terms; guarded by mu
}

// newOracle returns an empty index.
func newOracle() *oracleIndex {
	return &oracleIndex{
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
func (ix *oracleIndex) Add(doc DocID, terms []string) {
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
func (ix *oracleIndex) Delete(doc DocID) {
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
func (ix *oracleIndex) Compact() {
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
func (ix *oracleIndex) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// DeletedRatio reports the fraction of known documents that are
// tombstoned, the Compact trigger signal.
func (ix *oracleIndex) DeletedRatio() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(len(ix.deleted)) / float64(len(ix.docLen))
}

// Search ranks live documents against the term bag by BM25 and returns
// the top k hits, best first. Documents matching more query terms score
// higher through summation; no coordination factor is applied beyond
// that.
func (ix *oracleIndex) Search(terms []string, k int) []Hit {
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
	return oracleTopK(scores, k)
}

// oracleHeap is a min-heap over scores (ties broken by larger DocID so the
// final ascending-score pop order yields deterministic results).
type oracleHeap []Hit

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(Hit)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleTopK selects the k best-scoring hits, best first; ties break toward
// smaller DocID for determinism.
func oracleTopK(scores map[DocID]float64, k int) []Hit {
	h := make(oracleHeap, 0, k)
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

// picker is the source of choices a differential script is drawn from:
// a seeded generator in the test, the fuzzer's bytes in the fuzz target.
type picker interface {
	Intn(n int) int
	more() bool
}

type stepPicker struct {
	*rand.Rand
	steps int
}

func (p *stepPicker) more() bool { p.steps--; return p.steps >= 0 }

// bytePicker spends one input byte per choice and reads zero once the
// input is used up, which ends the script.
type bytePicker struct{ data []byte }

func (p *bytePicker) more() bool { return len(p.data) > 0 }
func (p *bytePicker) Intn(n int) int {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

// differential feeds one script of adds, deletes, compactions and
// searches to the index and to the oracle and demands the same hits:
// same keys in the same order, scores equal as float64 bits. The
// vocabulary is small, so lists grow through several slab sizes and
// terms repeat within a document (tf > 1); bags may be empty or hold
// the empty term; keys mostly increase but also arrive out of order
// and repeat. The index is handed each word's keyword-class ID, the
// oracle the word. A key the index holds is not added again: both would
// panic on a live one, and the oracle would resurrect a tombstoned one —
// the branch the index dropped.
func differential(t *testing.T, p picker) {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", ""}
	ix, or := New(), newOracle()
	var keys []DocID
	next := DocID(1000)
	for p.more() {
		switch op := p.Intn(16); {
		case op < 9: // add
			var key DocID
			switch kind := p.Intn(10); {
			case kind == 0 && len(keys) > 0: // a key seen before
				key = keys[p.Intn(len(keys))]
			case kind == 1: // a new key below the highest
				key = DocID(p.Intn(1000))
			default:
				next += DocID(1 + p.Intn(3))
				key = next
			}
			terms := make([]string, p.Intn(7))
			for i := range terms {
				terms[i] = vocab[p.Intn(len(vocab))]
			}
			if _, held := ix.Ordinal(key); !held {
				ix.Add(key, keywords(terms...))
				or.Add(key, terms)
				keys = append(keys, key)
			}
		case op < 11 && len(keys) > 0: // delete
			key := keys[p.Intn(len(keys))]
			ix.Delete(key)
			or.Delete(key)
		case op == 11:
			ix.Compact()
			or.Compact()
		default: // search
			query := make([]string, 1+p.Intn(3))
			for i := range query {
				query[i] = vocab[p.Intn(len(vocab))]
			}
			k := []int{1, 2, 3, 5, 10, 100, 1 << 20}[p.Intn(7)]
			got, want := ix.Search(query, k), or.Search(query, k)
			if len(got) != len(want) {
				t.Fatalf("Search(%q, %d): %d hits, oracle %d\n got %v\nwant %v", query, k, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("Search(%q, %d) hit %d: got %+v, oracle %+v\n got %v\nwant %v", query, k, i, got[i], want[i], got, want)
				}
			}
		}
	}
	if ix.liveDocs != or.liveDocs || ix.totalLen != or.totalLen {
		t.Fatalf("liveDocs, totalLen = %d, %d; oracle %d, %d", ix.liveDocs, ix.totalLen, or.liveDocs, or.totalLen)
	}
}

func TestSearchMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		differential(t, &stepPicker{Rand: rand.New(rand.NewSource(seed)), steps: 40 * int(seed)})
	}
}

func FuzzSearchMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 40, 400, 4000} {
		script := make([]byte, n)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		differential(t, &bytePicker{data: script})
	})
}
