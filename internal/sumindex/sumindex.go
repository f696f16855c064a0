// Package sumindex implements the paper's summary index (Section IV-B,
// Figure 5): an inverted index whose top-level keys are bundle
// indicants — hashtags, URLs, keywords, and the RT-oriented user class —
// and whose posting lists enumerate the bundles carrying each indicant
// together with occurrence counts.
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
// Posting storage follows the slab policy of Asadi, Lin & Busch
// ("Dynamic Memory Allocation Policies for Postings in Real-Time
// Twitter Search"): each term's postings live in an ID-sorted slice
// whose capacity grows through power-of-two size classes, and slabs
// freed by Forget are recycled through per-class freelists instead of
// being handed back to the garbage collector. Because every list is
// ID-sorted, candidate fetch is a k-way merge plus a counting sort over
// reused scratch (see Candidates), so the steady-state ingest path
// allocates only when a term's posting list genuinely outgrows its slab.
package sumindex

import (
	"fmt"
	"math/bits"
	"slices"

	"provex/internal/metrics"
	"provex/internal/score"
)

// Class identifies an indicant family — a top-level key group of the
// summary index.
type Class uint8

// Indicant classes. ClassUser is the paper's "more system specific
// fields can also be included, like the RT information": it lets a
// re-share route to the bundle containing the re-shared user's posts.
const (
	ClassTag Class = iota
	ClassURL
	ClassKeyword
	ClassUser
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTag:
		return "hashtag"
	case ClassURL:
		return "url"
	case ClassKeyword:
		return "keyword"
	case ClassUser:
		return "user"
	default:
		return fmt.Sprintf("class%d", uint8(c))
	}
}

// BundleID mirrors bundle.ID without importing the bundle package,
// keeping sumindex reusable below it in the dependency order.
type BundleID uint64

// Posting is one entry of a term's posting list: a bundle carrying the
// term and how many of its messages do.
type Posting struct {
	ID    BundleID
	Count uint32
}

// slab size classes: capacities 2^1 .. 2^maxSlabClass are recycled;
// larger lists (hyper-frequent terms) fall through to plain make.
const (
	maxSlabClass    = 10 // largest recycled capacity: 1024 postings
	maxFreePerClass = 256
)

// Index is the summary index. Not safe for concurrent use; the engine
// serialises ingest. Concurrent *readers* (queries under the pipeline's
// read lock) are safe as long as no Observe/Forget/Candidates call runs
// at the same time.
type Index struct {
	classes [numClasses]map[string][]Posting
	mem     metrics.MemEstimator
	// maxFanout skips hard-indicant postings longer than this during
	// candidate fetch (0 = unlimited): a hashtag carried by thousands
	// of bundles is a stop indicant with no routing signal. Postings
	// are still fully maintained, so changing the cap never loses state.
	maxFanout int

	// slabs holds recycled posting slices by capacity class; slabs[k]
	// stores slices of capacity 1<<k.
	slabs [maxSlabClass + 1][][]Posting

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

// New creates an empty summary index with no fanout cap.
func New() *Index {
	ix := &Index{}
	for c := range ix.classes {
		ix.classes[c] = make(map[string][]Posting)
	}
	return ix
}

// SetMaxFanout bounds the posting-list length considered during
// candidate fetch; 0 removes the bound.
func (ix *Index) SetMaxFanout(n int) { ix.maxFanout = n }

// Observe registers that doc joined bundle id: every indicant of the
// message raises its posting count for that bundle (Algorithm 1,
// step 3 — "update summary index").
func (ix *Index) Observe(id BundleID, doc score.Doc) {
	m := doc.Msg
	for _, h := range m.Hashtags {
		ix.add(ClassTag, h, id)
	}
	for _, u := range m.URLs {
		ix.add(ClassURL, u, id)
	}
	for _, k := range doc.Keywords {
		ix.add(ClassKeyword, k, id)
	}
	ix.add(ClassUser, m.User, id)
}

// findPosting returns the insertion index of id in the ID-sorted list.
func findPosting(pl []Posting, id BundleID) int {
	lo, hi := 0, len(pl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (ix *Index) add(c Class, term string, id BundleID) {
	class := ix.classes[c]
	pl, ok := class[term]
	if !ok {
		pl = append(ix.allocPostings(1), Posting{ID: id, Count: 1})
		class[term] = pl
		ix.mem.Add(metrics.MapEntryCost + metrics.StringCost(term) + metrics.PostingCost)
		return
	}
	i := findPosting(pl, id)
	if i < len(pl) && pl[i].ID == id {
		pl[i].Count++
		return
	}
	// Insert at i. Bundle IDs mostly grow with the stream, so the
	// common case is an append at the tail.
	if len(pl) < cap(pl) {
		pl = pl[:len(pl)+1]
		copy(pl[i+1:], pl[i:len(pl)-1])
		pl[i] = Posting{ID: id, Count: 1}
	} else {
		grown := ix.allocPostings(len(pl) + 1)[:len(pl)+1]
		copy(grown, pl[:i])
		copy(grown[i+1:], pl[i:])
		grown[i] = Posting{ID: id, Count: 1}
		ix.recycle(pl)
		pl = grown
	}
	class[term] = pl
	ix.mem.Add(metrics.PostingCost)
}

// allocPostings returns an empty posting slice with capacity for at
// least n entries, reusing a recycled slab of the right size class when
// one is free.
func (ix *Index) allocPostings(n int) []Posting {
	k := capClass(n)
	if k <= maxSlabClass {
		if fl := ix.slabs[k]; len(fl) > 0 {
			pl := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			ix.slabs[k] = fl[:len(fl)-1]
			return pl
		}
		return make([]Posting, 0, 1<<k)
	}
	// Beyond the largest slab class, grow by 3/2 like append would —
	// such lists belong to hyper-frequent terms and are rarely freed.
	c := n + n/2
	return make([]Posting, 0, c)
}

// capClass is the smallest k with 1<<k >= n (minimum 1: the smallest
// slab holds two postings, since one-bundle terms dominate).
func capClass(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// recycle returns a posting slice's storage to its freelist. Only
// exact power-of-two capacities up to the slab bound are kept.
func (ix *Index) recycle(pl []Posting) {
	c := cap(pl)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.TrailingZeros(uint(c))
	if k > maxSlabClass || len(ix.slabs[k]) >= maxFreePerClass {
		return
	}
	ix.slabs[k] = append(ix.slabs[k], pl[:0])
}

// Forget removes every posting of the bundle described by (tags, urls,
// keys, users) — the distinct indicants a bundle reports via
// Indicants(). It implements Algorithm 3's delete_index(b).
func (ix *Index) Forget(id BundleID, tags, urls, keys, users []string) {
	for _, t := range tags {
		ix.drop(ClassTag, t, id)
	}
	for _, u := range urls {
		ix.drop(ClassURL, u, id)
	}
	for _, k := range keys {
		ix.drop(ClassKeyword, k, id)
	}
	for _, u := range users {
		ix.drop(ClassUser, u, id)
	}
}

func (ix *Index) drop(c Class, term string, id BundleID) {
	class := ix.classes[c]
	pl, ok := class[term]
	if !ok {
		return
	}
	i := findPosting(pl, id)
	if i >= len(pl) || pl[i].ID != id {
		return
	}
	copy(pl[i:], pl[i+1:])
	pl = pl[:len(pl)-1]
	ix.mem.Sub(metrics.PostingCost)
	if len(pl) == 0 {
		delete(class, term)
		ix.recycle(pl)
		ix.mem.Sub(metrics.MapEntryCost + metrics.StringCost(term))
		return
	}
	class[term] = pl
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
	ID      BundleID
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
	list  []Posting
	pos   int
	class Class
}

// heapEntry orders one cursor in the merge heap by the bundle ID under
// its read position. Sifting these 16 bytes is measurably faster than
// sifting cursors or a word-sized index (no message has 2^31 terms).
type heapEntry struct {
	head   BundleID
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
	m := doc.Msg
	for _, h := range m.Hashtags {
		ix.gather(ClassTag, h)
	}
	for _, u := range m.URLs {
		ix.gather(ClassURL, u)
	}
	if m.IsRT() {
		ix.gather(ClassUser, m.RTOf)
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
func (ix *Index) gather(c Class, term string) {
	pl := ix.classes[c][term]
	if ix.maxFanout > 0 && len(pl) > ix.maxFanout {
		ix.noteSkip(c)
		return
	}
	if len(pl) == 0 {
		return
	}
	ix.heap = append(ix.heap, heapEntry{head: pl[0].ID, cursor: int32(len(ix.cursors))})
	ix.cursors = append(ix.cursors, cursor{list: pl, class: c})
	ix.fetch.Postings += len(pl)
}

// noteSkip records a non-traversed term for LastFetch.
func (ix *Index) noteSkip(c Class) {
	switch c {
	case ClassURL:
		ix.fetch.SkippedURL++
	case ClassTag:
		ix.fetch.SkippedTag++
	case ClassUser:
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
		var n [numClasses]uint32
		hits := 0
		for len(h) > 0 && h[0].head == id {
			top := h[0]
			cur := &cursors[top.cursor]
			n[cur.class]++
			hits++
			cur.pos++
			if cur.pos < len(cur.list) {
				top.head = cur.list[cur.pos].ID
			} else {
				top = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0, top)
		}
		ix.hist[hits]++
		out = append(out, Candidate{ID: id, URLHits: n[ClassURL], TagHits: n[ClassTag], RTHit: n[ClassUser] != 0})
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

// Postings returns the posting list of term in class c, ordered by
// ascending bundle ID. The slice is the index's internal storage:
// callers must treat it as read-only and must not retain it across
// index mutations. Query support uses it for the i(q,B)
// indicant-closeness factor of Eq. 7.
func (ix *Index) Postings(c Class, term string) []Posting {
	return ix.classes[c][term]
}

// Terms returns the number of distinct terms in class c.
func (ix *Index) Terms(c Class) int { return len(ix.classes[c]) }

// MemBytes is the analytic memory estimate of the index.
func (ix *Index) MemBytes() int64 { return ix.mem.Bytes() }
