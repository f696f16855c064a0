// Package textindex is an embedded full-text search engine — the
// stdlib-only substitute for the Lucene instance the paper used for its
// query support. It provides an incremental inverted index with BM25
// ranking and tombstone deletes, laid out the way a real-time message
// index is (Earlybird; Asadi, Lin & Busch in PAPERS.md):
//
//   - A document is a dense ordinal the index assigns in arrival order.
//     Per-document state is two columns indexed by it: the length of the
//     term bag and the caller's 64-bit key.
//   - A term's postings are an append-only, pointer-free byte code in
//     ordinal order — gap and term frequency, two to three bytes a
//     posting — held in slabs cut from one arena (postings.go).
//   - Search merges the query terms' lists document-at-a-time into a
//     heap of k hits; nothing is allocated per candidate.
//
// Callers name documents by key (Add, Delete, Hit.Doc) and the ranking
// breaks score ties by key, never by ordinal, so two indexes holding the
// same documents answer alike whatever order they were added in.
// Ordinal translates a key for callers that keep their own columns
// beside the index's; ordinals hold until the next Compact.
//
// The provenance query module indexes messages (the Figure 1 baseline
// search) and package archive indexes the summaries of bundles flushed
// to disk, in separate Index instances.
package textindex

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// DocID is the caller's key for an indexed document.
type DocID uint64

// BM25 tuning constants — the standard Robertson defaults.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Index is an incremental inverted index. All methods are safe for
// concurrent use; writes take an exclusive lock.
type Index struct {
	mu    sync.RWMutex
	terms termTable // term → posting list; guarded by mu
	pool  arena     // the slabs the lists are written in; guarded by mu

	keys  column[DocID]    // caller's key, by ordinal; guarded by mu
	lens  column[uint32]   // term-bag length, by ordinal; guarded by mu
	byKey map[DocID]uint32 // key → ordinal; nil while keys have arrived in increasing order, when keys is searched instead; guarded by mu
	dead  []uint64         // tombstone bit per ordinal; nil until the first Delete; guarded by mu
	nDead int              // set bits in dead; guarded by mu

	postings int64    // postings over all lists, tombstoned documents included; guarded by mu
	totalLen int64    // sum of live documents' lengths; guarded by mu
	liveDocs int      // documents with at least one term and no tombstone; guarded by mu
	sorted   []string // Add's scratch copy of one document's terms; guarded by mu
}

// New returns an empty index.
func New() *Index { return new(Index) }

// Add indexes a document under key with the given term bag, giving it
// the next ordinal: the n-th Add is ordinal n − 1. Duplicate terms raise
// term frequency; empty terms are ignored. Adding a key the index holds,
// tombstoned or not, is a programming error and panics — the index
// assigns ordinals, so a key is never reused; a caller whose input may
// repeat keys asks Ordinal first. A document with no terms still takes
// an ordinal (so that its key is recognised when it comes again) but can
// never be found, and the BM25 statistics do not count it.
func (ix *Index) Add(key DocID, terms []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, held := ix.ordinalLocked(key); held {
		panic("textindex: duplicate Add for a key the index holds")
	}
	ord := ix.keys.n
	if ord == math.MaxUint32 {
		panic("textindex: ordinal space exhausted")
	}
	if ix.byKey == nil && ord > 0 && key < *ix.keys.at(ord - 1) {
		// The first new key to arrive out of order: from here on a
		// binary search over keys cannot tell new from held.
		ix.indexKeysLocked()
	}
	if ix.byKey != nil {
		ix.byKey[key] = uint32(ord)
	}
	ix.keys.push(key)
	ix.lens.push(uint32(len(terms)))
	if len(terms) == 0 {
		return
	}
	// Term frequencies by sort + run length over a scratch copy: no
	// per-document map. Which term's posting list is extended first does
	// not matter — each list stays in ordinal order either way.
	ix.sorted = append(ix.sorted[:0], terms...)
	slices.Sort(ix.sorted)
	for i := 0; i < len(ix.sorted); {
		t := ix.sorted[i]
		j := i + 1
		for j < len(ix.sorted) && ix.sorted[j] == t {
			j++
		}
		if t != "" {
			ix.pool.add(ix.terms.intern(t), uint32(ord), uint32(j-i))
			ix.postings++
		}
		i = j
	}
	ix.totalLen += int64(len(terms))
	ix.liveDocs++
}

// indexKeysLocked builds the key → ordinal map from the key column.
func (ix *Index) indexKeysLocked() {
	ix.byKey = make(map[DocID]uint32, ix.keys.n+1)
	for ord := 0; ord < ix.keys.n; ord++ {
		ix.byKey[*ix.keys.at(ord)] = uint32(ord)
	}
}

// Ordinal reports the ordinal Add gave the document under key, and
// whether the index holds the key at all.
func (ix *Index) Ordinal(key DocID) (ord int, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ordinalLocked(key)
}

func (ix *Index) ordinalLocked(key DocID) (int, bool) {
	if ix.byKey != nil {
		ord, ok := ix.byKey[key]
		return int(ord), ok
	}
	n := ix.keys.n
	if n == 0 || key > *ix.keys.at(n - 1) {
		return 0, false // the common case: keys increase with arrival
	}
	ord := sort.Search(n, func(i int) bool { return *ix.keys.at(i) >= key })
	return ord, *ix.keys.at(ord) == key
}

func (ix *Index) deadLocked(ord uint32) bool {
	w := int(ord >> 6)
	return w < len(ix.dead) && ix.dead[w]>>(ord&63)&1 != 0
}

// Delete tombstones the document under key. Its postings are skipped at
// query time; Compact reclaims them. Deleting an unknown or already
// deleted document is a no-op.
func (ix *Index) Delete(key DocID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, ok := ix.ordinalLocked(key)
	if !ok || ix.deadLocked(uint32(ord)) {
		return
	}
	if w := ord >> 6; w >= len(ix.dead) {
		ix.dead = append(ix.dead, make([]uint64, w+1-len(ix.dead))...)
	}
	ix.dead[ord>>6] |= 1 << (ord & 63)
	ix.nDead++
	if n := *ix.lens.at(ord); n > 0 {
		ix.totalLen -= int64(n)
		ix.liveDocs--
	}
}

// Compact drops the tombstoned documents: the survivors are renumbered
// densely in their old order and every list is re-encoded without the
// dead ordinals into a fresh arena. Amortised callers should invoke it
// when DeletedRatio grows past a threshold.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.nDead == 0 {
		return
	}
	const gone = ^uint32(0)
	renum := make([]uint32, ix.keys.n)
	keys, lens := ix.keys, ix.lens
	ix.keys, ix.lens = column[DocID]{}, column[uint32]{}
	for ord := range renum {
		if ix.deadLocked(uint32(ord)) {
			renum[ord] = gone
			continue
		}
		renum[ord] = uint32(ix.keys.n)
		ix.keys.push(*keys.at(ord))
		ix.lens.push(*lens.at(ord))
	}
	if ix.byKey != nil {
		ix.indexKeysLocked()
	}
	ix.dead, ix.nDead = nil, 0

	terms, pool := ix.terms, ix.pool
	ix.terms, ix.pool, ix.postings = termTable{}, arena{}, 0
	for id := 0; id < terms.names.n; id++ {
		var l list
		for c := pool.cursor(terms.lists.at(id)); c.next(); {
			if ord := renum[c.ord]; ord != gone {
				ix.pool.add(&l, ord, c.tf)
			}
		}
		if l.df > 0 {
			*ix.terms.intern(*terms.names.at(id)) = l
			ix.postings += int64(l.df)
		}
	}
}

// DeletedRatio reports the fraction of known documents that are
// tombstoned, the Compact trigger signal.
func (ix *Index) DeletedRatio() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.keys.n == 0 {
		return 0
	}
	return float64(ix.nDead) / float64(ix.keys.n)
}

// Stats is what the index holds.
type Stats struct {
	Docs     int   // ordinals assigned and not compacted away
	Postings int   // (term, document) pairs over all lists
	Bytes    int64 // heap the index owns: arena pages, term table, per-document columns
}

// keyEntryBytes is what Stats charges an entry of the key → ordinal
// map, which only an index fed out of order has: the runtime's table
// keeps eight 16-byte slots and eight control bytes to a group, at a
// load between 7/16 and 7/8.
const keyEntryBytes = 30

// Stats reports the index's size, counted exactly from what it has
// allocated (the key map apart, which is charged per entry).
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		Docs:     ix.keys.n,
		Postings: int(ix.postings),
		Bytes: ix.pool.bytes() + ix.terms.bytes() + ix.keys.bytes() + ix.lens.bytes() +
			int64(cap(ix.dead))*8 + int64(len(ix.byKey))*keyEntryBytes,
	}
}

// Hit is one ranked search result.
type Hit struct {
	Doc   DocID
	Score float64
}

// termCursor is one query term's position in the merge.
type termCursor struct {
	cursor
	idf  float64
	more bool // ord and tf are a posting not yet scored
}

// advanceLocked moves c to its term's next live posting.
func (ix *Index) advanceLocked(c *termCursor) {
	for c.more = c.next(); c.more && ix.deadLocked(c.ord); c.more = c.next() {
	}
}

// Search ranks live documents against the term bag by BM25 and returns
// the top k hits, best first, equal scores by ascending key. Documents
// matching more query terms score higher through summation; no
// coordination factor is applied beyond that.
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

	// One cursor per distinct query term that has live postings, in
	// query order — the order a document's contributions are summed in.
	var buf [8]termCursor
	cs := buf[:0]
	for i, t := range terms {
		l := ix.terms.lookup(t)
		if l == nil || slices.Contains(terms[:i], t) {
			continue
		}
		df := int(l.df)
		if ix.nDead > 0 {
			// Only a tombstoned index pays a pass to count the live.
			df = 0
			for c := ix.pool.cursor(l); c.next(); {
				if !ix.deadLocked(c.ord) {
					df++
				}
			}
		}
		if df == 0 {
			continue
		}
		c := termCursor{
			cursor: ix.pool.cursor(l),
			idf:    math.Log(1 + (float64(ix.liveDocs)-float64(df)+0.5)/(float64(df)+0.5)),
		}
		ix.advanceLocked(&c)
		cs = append(cs, c)
	}

	// Document-at-a-time: the lowest ordinal any cursor stands on is
	// scored from every cursor standing on it, then those move on.
	h := make(hitHeap, 0, min(k, 64))
	for {
		ord, found := uint32(0), false
		for i := range cs {
			if cs[i].more && (!found || cs[i].ord < ord) {
				ord, found = cs[i].ord, true
			}
		}
		if !found {
			break
		}
		dl := float64(*ix.lens.at(int(ord)))
		var score float64
		for i := range cs {
			c := &cs[i]
			if !c.more || c.ord != ord {
				continue
			}
			tf := float64(c.tf)
			norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgdl))
			score += c.idf * norm
			ix.advanceLocked(c)
		}
		h.offer(Hit{Doc: *ix.keys.at(int(ord)), Score: score}, k)
	}
	return h.ranked()
}

// hitHeap is a min-heap of the best hits seen so far: the root is the
// worst of them, the one the next better hit replaces.
type hitHeap []Hit

// worse orders hits for the heap and, reversed, for the result: a lower
// score is worse, and of two equal scores the larger key.
func worse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// offer keeps x if it is among the k best seen so far.
func (h *hitHeap) offer(x Hit, k int) {
	s := *h
	if len(s) < k {
		s = append(s, x)
		*h = s
		for i := len(s) - 1; i > 0; {
			p := (i - 1) / 2
			if !worse(s[i], s[p]) {
				break
			}
			s[i], s[p] = s[p], s[i]
			i = p
		}
		return
	}
	if !worse(s[0], x) {
		return
	}
	s[0] = x
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(s) {
			break
		}
		if r := m + 1; r < len(s) && worse(s[r], s[m]) {
			m = r
		}
		if !worse(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// ranked returns the kept hits best first, nil when there are none.
func (h hitHeap) ranked() []Hit {
	if len(h) == 0 {
		return nil
	}
	slices.SortFunc(h, func(a, b Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return h
}
