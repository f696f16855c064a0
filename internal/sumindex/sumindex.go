// Package sumindex implements the paper's summary index (Section IV-B,
// Figure 5): an inverted index whose top-level keys are bundle
// indicants — hashtags, URLs, keywords, and the RT-oriented user class —
// and whose posting lists enumerate the bundles carrying each indicant.
//
// The index serves two operations on the ingest hot path:
//
//   - Candidates: given a new message's hard indicants (URLs, hashtags
//     and the re-shared user), fetch the candidate bundle list
//     (Algorithm 1, step 1);
//   - Observe/Forget: keep the postings in sync as messages join
//     bundles and as the pool evicts bundles (Algorithm 1, step 3 and
//     Algorithm 3's delete_index).
//
// A posting is a bare bundle ID in an ID-sorted slice per term: how
// often a bundle carries a term is the bundle's own summary
// (bundle.Count), so the index stores only membership. Because every
// list is ID-sorted, candidate fetch is a k-way merge plus a counting
// sort over reused scratch (see Candidates) and allocates nothing at
// steady state.
package sumindex

import (
	"slices"

	"provex/internal/bundle"
	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
)

// The index's keys are term-dictionary IDs, whose top bits carry the
// indicant class (termdict.Class), so one map holds every class. The
// user class is the paper's "more system specific fields can also be
// included, like the RT information": it lets a re-share route to the
// bundle containing the re-shared user's posts.

// MaxFanout is the stop-indicant cut: candidate fetch skips a hashtag,
// URL or re-shared-user posting list longer than this. A hashtag carried
// by thousands of bundles routes nothing, yet walking it for every
// message that carries it makes a full-index match superlinear in the
// stream. A skipped list is charged to every candidate's Eq. 1 bound as
// slack (FetchInfo), so pruning stays sound; only a bundle reachable
// through nothing but skipped lists is missed. Postings are maintained
// in full either way.
const MaxFanout = 1024

// Index is the summary index. Not safe for concurrent use; the engine
// serialises ingest. Concurrent *readers* (queries under the pipeline's
// read lock) are safe as long as no Observe/Forget/Candidates call runs
// at the same time.
type Index struct {
	postings map[termdict.ID][]bundle.ID
	mem      metrics.MemEstimator
	// maxFanout is MaxFanout; the package's tests lower it to exercise
	// skipping on small lists.
	maxFanout int

	// Candidate-fetch scratch, reused across calls (see Candidates):
	// the gathered cursors and their merge heap, the ID-ordered merge
	// output, the hit-count histogram and the ranked result.
	cursors []cursor
	heap    []heapEntry
	merged  []Candidate
	hist    []int
	candBuf []Candidate
	fetch   FetchInfo
}

// New creates an empty summary index.
func New() *Index {
	return &Index{postings: make(map[termdict.ID][]bundle.ID), maxFanout: MaxFanout}
}

// Observe registers that doc joined bundle id: the bundle is added to
// the posting list of every indicant of the message it is not yet on
// (Algorithm 1, step 3 — "update summary index").
func (ix *Index) Observe(id bundle.ID, doc score.Doc) {
	for _, t := range doc.Indicants() {
		ix.add(t, id)
	}
}

func (ix *Index) add(term termdict.ID, id bundle.ID) {
	pl, ok := ix.postings[term]
	if !ok {
		ix.mem.Add(metrics.MapEntryCost)
	}
	i, found := slices.BinarySearch(pl, id)
	if found {
		return
	}
	// Bundle IDs mostly grow with the stream, so the common case is an
	// append at the tail.
	ix.postings[term] = slices.Insert(pl, i, id)
	ix.mem.Add(metrics.PostingCost)
}

// Forget removes the bundle's posting from every list of terms — the
// distinct terms a bundle reports via AppendTerms. It implements
// Algorithm 3's delete_index(b).
func (ix *Index) Forget(id bundle.ID, terms []termdict.ID) {
	for _, t := range terms {
		ix.drop(t, id)
	}
}

func (ix *Index) drop(term termdict.ID, id bundle.ID) {
	pl := ix.postings[term]
	i, found := slices.BinarySearch(pl, id)
	if !found {
		return
	}
	ix.mem.Sub(metrics.PostingCost)
	if len(pl) == 1 {
		delete(ix.postings, term)
		ix.mem.Sub(metrics.MapEntryCost)
		return
	}
	ix.postings[term] = slices.Delete(pl, i, i+1)
}

// Candidate is one bundle surfaced by the summary index with the number
// of hard-indicant hits that surfaced it, split per class. The
// per-class counts are exact over the posting lists the fetch traversed
// — the inputs of the Eq. 1 upper bound (score.BundleSimCeil); lists
// the fetch skipped are reported in FetchInfo as slack. A count is at
// most the message's term count in that class, which a uint32 always
// holds: it never wraps into a smaller one, which would make the bound
// unsound.
type Candidate struct {
	ID      bundle.ID
	URLHits uint32
	TagHits uint32
	RTHit   bool
}

// Hits is the fetch rank: URLHits + TagHits (+1 for RTHit).
func (c Candidate) Hits() int {
	n := int(c.URLHits) + int(c.TagHits)
	if c.RTHit {
		n++
	}
	return n
}

// FetchInfo describes what the last Candidates call did NOT traverse:
// per class, how many of the message's hard-indicant terms were skipped
// because the posting list exceeded the fanout cap. A skipped list may
// still hit any candidate, so upper-bound users must treat each skipped
// term as a potential hit (BundleSimCeil's slack terms). Postings counts
// the entries actually walked — the true fetch cost of the message.
type FetchInfo struct {
	SkippedURL int
	SkippedTag int
	SkippedRT  bool
	Postings   int
}

// cursor is one traversed posting list and the read position in it.
type cursor struct {
	list  []bundle.ID
	pos   int
	class termdict.Class
}

// heapEntry orders one cursor in the merge heap by the bundle ID under
// its read position. Sifting these 16 bytes is measurably faster than
// sifting cursors or a word-sized index (no message has 2^31 terms).
type heapEntry struct {
	head   bundle.ID
	cursor int32
}

// Candidates fetches the candidate bundle list for doc (Algorithm 1,
// step 1): the union of the posting lists of the message's URLs and
// hashtags and, for a re-share, of the re-shared user. Keyword postings
// are maintained for Eq. 7 but never walked here: under weights where
// the keyword and freshness terms together cannot pass the join
// threshold (core.New enforces it), a bundle sharing only keywords with
// the message can never win, so the hard classes are the prefix that
// can reach it (prefix filtering, DESIGN.md §2g). The result is ordered
// by descending hit count, then ascending bundle ID, so the match stage
// scans in impact order.
//
// Three passes over reused scratch produce it: gather one cursor per
// traversed list (a repeated term gets one per occurrence, so counts
// each time), merge them in ascending bundle ID, scatter by hit count.
//
// The returned slice is internal scratch, valid only until the next
// Candidates call on this index — the ingest loop consumes it within
// one Algorithm 1 step, which is what makes candidate fetch
// allocation-free at steady state. LastFetch reports the skipped-list
// slack of the same call under the same validity contract.
//
//provex:hotpath Algorithm 1 step 1 runs per ingested message
func (ix *Index) Candidates(doc score.Doc) []Candidate {
	ix.fetch = FetchInfo{}
	ix.cursors, ix.heap = ix.cursors[:0], ix.heap[:0]
	tags, urls, _ := doc.Runs()
	for _, h := range tags {
		ix.gather(h)
	}
	for _, u := range urls {
		ix.gather(u)
	}
	if rt, ok := doc.RTUser(); ok {
		ix.gather(rt)
	}
	if len(ix.cursors) == 0 {
		return nil
	}
	ix.merge()
	return ix.scatter()
}

// gather opens a cursor on one term's posting list, or records the term
// as skipped slack when its list exceeds the fanout cap.
//
//provex:hotpath runs per hard-indicant term of every ingested message
func (ix *Index) gather(term termdict.ID) {
	pl := ix.postings[term]
	if len(pl) > ix.maxFanout {
		ix.noteSkip(term.Class())
		return
	}
	if len(pl) == 0 {
		return
	}
	ix.heap = append(ix.heap, heapEntry{head: pl[0], cursor: int32(len(ix.cursors))})
	ix.cursors = append(ix.cursors, cursor{list: pl, class: term.Class()})
	ix.fetch.Postings += len(pl)
}

// noteSkip records a non-traversed term for LastFetch.
func (ix *Index) noteSkip(c termdict.Class) {
	switch c {
	case termdict.URL:
		ix.fetch.SkippedURL++
	case termdict.Tag:
		ix.fetch.SkippedTag++
	case termdict.User:
		ix.fetch.SkippedRT = true
	}
}

// merge drains the gathered cursors through a binary min-heap into
// ix.merged: one Candidate per distinct bundle, in ascending ID, with
// the per-class hits of every cursor that carried it. It histograms the
// candidates by total hits in ix.hist; a list holds a bundle at most
// once, so no total exceeds the cursor count.
//
//provex:hotpath runs per ingested message
func (ix *Index) merge() {
	cursors, h := ix.cursors, ix.heap
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, h[i])
	}
	ix.hist = slices.Grow(ix.hist[:0], len(h)+1)[:len(h)+1]
	clear(ix.hist)
	out := ix.merged[:0]
	for len(h) > 0 {
		id := h[0].head
		var n [termdict.NumClasses]uint32
		hits := 0
		for len(h) > 0 && h[0].head == id {
			top := h[0]
			cur := &cursors[top.cursor]
			n[cur.class]++
			hits++
			cur.pos++
			if cur.pos < len(cur.list) {
				top.head = cur.list[cur.pos]
			} else {
				top = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0, top)
		}
		ix.hist[hits]++
		out = append(out, Candidate{ID: id, URLHits: n[termdict.URL], TagHits: n[termdict.Tag], RTHit: n[termdict.User] != 0})
	}
	ix.merged = out
}

// siftDown places e at position i of the min-heap h or below it,
// moving smaller children up.
//
//provex:hotpath runs per walked posting
func siftDown(h []heapEntry, i int, e heapEntry) {
	if i >= len(h) {
		return
	}
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].head < h[child].head {
			child = r
		}
		if e.head <= h[child].head {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// scatter is a stable counting sort of ix.merged by hit count,
// descending. The merge emitted ascending IDs, and stability keeps that
// order inside each hit count, so the (hits desc, ID asc) rank needs no
// comparator.
//
//provex:hotpath runs per ingested message
func (ix *Index) scatter() []Candidate {
	next := 0
	for hits := len(ix.hist) - 1; hits > 0; hits-- {
		next, ix.hist[hits] = next+ix.hist[hits], next
	}
	out := slices.Grow(ix.candBuf[:0], len(ix.merged))[:len(ix.merged)]
	for _, c := range ix.merged {
		hits := c.Hits()
		out[ix.hist[hits]] = c
		ix.hist[hits]++
	}
	ix.candBuf = out
	return out
}

// LastFetch returns the FetchInfo of the most recent Candidates call.
// Like the candidate slice itself, it is valid until the next call.
func (ix *Index) LastFetch() FetchInfo { return ix.fetch }

// Postings returns the posting list of term, ordered by ascending bundle
// ID; termdict.None has none. The slice is the index's internal storage:
// callers must treat it as read-only and must not retain it across
// index mutations. Query support uses it for the i(q,B)
// indicant-closeness factor of Eq. 7.
func (ix *Index) Postings(term termdict.ID) []bundle.ID {
	return ix.postings[term]
}

// MemBytes is the analytic memory estimate of the index.
func (ix *Index) MemBytes() int64 { return ix.mem.Bytes() }
