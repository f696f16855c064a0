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
// A posting is bare membership: how often a bundle carries a term is
// the bundle's own summary (bundle.Count). It is stored as the bundle
// ID in 4 bytes, so the index holds bundles 1 to MaxID, and a term costs
// one 4-byte entry in its class's termdict.Column at ID.Index(). The posting count
// alone picks the entry's form: zero for no bundle, the one posting
// inline for one bundle (81 % of the terms on the crawl), and from two
// bundles a reference to an ID-sorted list in one table of lists, whose
// slots are recycled. Observe promotes a term at its second bundle and
// Forget demotes it at one, and a list's capacity is a function of its
// length (capFor), so the same postings give the same structure and the
// same MemBytes whatever order built them. Because every list is
// ID-sorted, candidate fetch is a k-way merge plus a counting sort over
// reused scratch (see Candidates) and allocates nothing at steady state.
package sumindex

import (
	"fmt"
	"math/bits"
	"slices"

	"provex/internal/bundle"
	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
)

// The index's keys are term-dictionary IDs, whose top bits carry the
// indicant class (termdict.Class). The user class is the paper's "more
// system specific fields can also be included, like the RT
// information": it lets a re-share route to the bundle containing the
// re-shared user's posts.

// MaxFanout is the stop-indicant cut: candidate fetch skips a hashtag,
// URL or re-shared-user posting list longer than this. A hashtag carried
// by thousands of bundles routes nothing, yet walking it for every
// message that carries it makes a full-index match superlinear in the
// stream. A skipped list is charged to every candidate's Eq. 1 bound as
// slack (FetchInfo), so pruning stays sound; only a bundle reachable
// through nothing but skipped lists is missed. Postings are maintained
// in full either way.
const MaxFanout = 1024

// A term's entry: 0 when no bundle carries it, its one posting when one
// does, and listRef | slot, the slot of its list in the list table, when
// two or more do. A posting is a bundle ID in [1, listRef).
const listRef = 1 << 31

// MaxID is the highest bundle ID the index holds, bundle.MaxID: a
// posting lies below listRef. Observe refuses a higher one. Pools hand
// out IDs from 1 up (a shard's from its IDStart), so reaching it takes
// 2^31 − 1 bundles created; the crawl makes 43 k.
const MaxID = bundle.MaxID

// InsertKind says where Observe put a new posting: the work counter of
// the index (provex_sumindex_inserts_total).
type InsertKind int

const (
	Inline  InsertKind = iota // a term's first bundle, held in its entry
	Promote                   // its second: the entry becomes a list of two
	Tail                      // appended to a list: the bundle is the term's newest
	Mid                       // inserted inside a list: an older bundle gained the term
	NumInsertKinds
)

func (k InsertKind) String() string {
	return [...]string{"inline", "promote", "tail", "mid"}[k]
}

// Index is the summary index. Not safe for concurrent use; the engine
// serialises ingest. Concurrent *readers* (queries under the pipeline's
// read lock) are safe as long as no Observe/Forget/Candidates call runs
// at the same time.
type Index struct {
	terms [termdict.NumClasses]termdict.Column[uint32] // a term's entry by class and ID.Index()
	lists termdict.Column[[]uint32]                    // the list table: ID-sorted postings, cap(l) == capFor(len(l)); nil when free
	free  []uint32                                     // list slots to reuse
	mem   metrics.MemEstimator                         // the lists: their capacity and table slots; MemBytes adds the term columns

	inserts [NumInsertKinds]metrics.Counter

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
	return &Index{maxFanout: MaxFanout}
}

// Inserts is the counter of the postings Observe added of kind k.
func (ix *Index) Inserts(k InsertKind) *metrics.Counter { return &ix.inserts[k] }

// Observe registers that doc joined bundle id: the bundle is added to
// the posting list of every indicant of the message it is not yet on
// (Algorithm 1, step 3 — "update summary index"). It panics on a bundle
// ID of 0 or past MaxID.
func (ix *Index) Observe(id bundle.ID, doc score.Doc) {
	if id == 0 || id > MaxID {
		panic(fmt.Sprintf("sumindex: bundle ID %d outside 1..%d", id, MaxID))
	}
	for _, t := range doc.Indicants() {
		ix.add(t, uint32(id))
	}
}

func (ix *Index) add(term termdict.ID, p uint32) {
	e := ix.terms[term.Class()].Reach(int(term.Index()))
	switch {
	case *e == 0:
		*e = p
		ix.inserts[Inline].Inc()
	case *e < listRef:
		if *e == p {
			return
		}
		*e = listRef | ix.newList(min(*e, p), max(*e, p))
		ix.inserts[Promote].Inc()
	default:
		pl := ix.lists.At(int(*e &^ listRef))
		l := *pl
		// Bundle IDs mostly grow with the stream, so the common case is
		// an append at the tail.
		i, kind := len(l), Tail
		if p <= l[i-1] {
			var found bool
			if i, found = slices.BinarySearch(l, p); found {
				return
			}
			kind = Mid
		}
		*pl = insertAt(l, i, p)
		ix.mem.Add(int64(cap(*pl)-cap(l)) * metrics.PostingCost)
		ix.inserts[kind].Inc()
	}
}

// newList stores the ID-sorted pair a, b in a free slot of the list
// table and returns the slot. A slot stays below listRef: 2^31 lists
// would be 48 GiB of slice headers.
func (ix *Index) newList(a, b uint32) uint32 {
	slot := ix.lists.Len()
	if n := len(ix.free); n > 0 {
		slot, ix.free = int(ix.free[n-1]), ix.free[:n-1]
	}
	*ix.lists.Reach(slot) = []uint32{a, b}
	ix.mem.Add(2*metrics.PostingCost + metrics.ListSlotCost)
	return uint32(slot)
}

// capFor is the capacity of a list of n ≥ 2 postings, so that a list's
// capacity follows from its length alone: n rounded up to an even
// number to 8, then to four steps per doubling (12, 16, 20, 24, 28, 32,
// 40, 48, …). Every step below 512 postings is an allocator size class,
// so the capacity charged is the heap held.
func capFor(n int) int {
	if n <= 8 {
		return (n + 1) &^ 1
	}
	step := 1 << max(2, bits.Len(uint(n-1))-3)
	return (n + step - 1) &^ (step - 1)
}

// insertAt inserts v at i of l, moving l to a list of capFor(len+1)
// when it is full.
func insertAt(l []uint32, i int, v uint32) []uint32 {
	if len(l) < cap(l) {
		return slices.Insert(l, i, v)
	}
	out := make([]uint32, len(l)+1, capFor(len(l)+1))
	copy(out, l[:i])
	out[i] = v
	copy(out[i+1:], l[i:])
	return out
}

// deleteAt deletes l[i], moving l to a list of capFor(len-1) when that
// is smaller.
func deleteAt(l []uint32, i int) []uint32 {
	if c := capFor(len(l) - 1); c < cap(l) {
		out := make([]uint32, len(l)-1, c)
		copy(out, l[:i])
		copy(out[i:], l[i+1:])
		return out
	}
	return slices.Delete(l, i, i+1)
}

// Forget removes the bundle's posting from every list of terms — the
// distinct terms a bundle reports via AppendTerms. It implements
// Algorithm 3's delete_index(b).
func (ix *Index) Forget(id bundle.ID, terms []termdict.ID) {
	if id == 0 || id > MaxID {
		return // never held
	}
	for _, t := range terms {
		ix.drop(t, uint32(id))
	}
}

func (ix *Index) drop(term termdict.ID, p uint32) {
	e := ix.terms[term.Class()].At(int(term.Index()))
	switch {
	case e == nil || *e == 0:
	case *e < listRef:
		if *e == p {
			*e = 0
		}
	default:
		slot := *e &^ listRef
		pl := ix.lists.At(int(slot))
		l := *pl
		i, found := slices.BinarySearch(l, p)
		if !found {
			return
		}
		if len(l) == 2 {
			*e = l[1-i]
			*pl = nil
			ix.free = append(ix.free, slot)
			ix.mem.Sub(int64(cap(l))*metrics.PostingCost + metrics.ListSlotCost)
			return
		}
		*pl = deleteAt(l, i)
		ix.mem.Sub(int64(cap(l)-cap(*pl)) * metrics.PostingCost)
	}
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

// cursor is one traversed posting list and the read position in it. An
// inline posting has no list: its only posting is its heap entry's head.
type cursor struct {
	list  []uint32
	pos   int
	class termdict.Class
}

// heapEntry orders one cursor in the merge heap by the posting under its
// read position. A posting is its bundle ID, and sifting these 8 bytes
// is faster than sifting cursors (no message has 2^31 terms).
type heapEntry struct {
	head   uint32
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
// traversed list (a record's runs are sets, so one per term), merge
// them in ascending bundle ID, scatter by hit count.
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
	e := ix.entry(term)
	var list []uint32
	head, n := e, 1
	switch {
	case e == 0:
		n = 0
	case e >= listRef:
		list = *ix.lists.At(int(e &^ listRef))
		head, n = list[0], len(list)
	}
	if n > ix.maxFanout {
		ix.noteSkip(term.Class())
		return
	}
	if n == 0 {
		return
	}
	ix.heap = append(ix.heap, heapEntry{head: head, cursor: int32(len(ix.cursors))})
	ix.cursors = append(ix.cursors, cursor{list: list, class: term.Class()})
	ix.fetch.Postings += n
}

// entry returns term's entry; 0 when the index has none.
func (ix *Index) entry(term termdict.ID) uint32 {
	if e := ix.terms[term.Class()].At(int(term.Index())); e != nil {
		return *e
	}
	return 0
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
		out = append(out, Candidate{ID: bundle.ID(id), URLHits: n[termdict.URL], TagHits: n[termdict.Tag], RTHit: n[termdict.User] != 0})
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

// AppendPostings appends the bundles carrying term to dst in ascending
// ID and returns it; termdict.None has none. It writes nothing in the
// index, so readers may call it side by side. Query support uses it for
// the i(q,B) indicant-closeness factor of Eq. 7.
func (ix *Index) AppendPostings(dst []bundle.ID, term termdict.ID) []bundle.ID {
	switch e := ix.entry(term); {
	case e == 0:
	case e < listRef:
		dst = append(dst, bundle.ID(e))
	default:
		for _, p := range *ix.lists.At(int(e &^ listRef)) {
			dst = append(dst, bundle.ID(p))
		}
	}
	return dst
}

// MemBytes is the index's memory estimate: each list's capacity and
// table slot, charged while the list is held, plus the pages of the
// term columns as allocated. The table's free slots and unfilled last
// page are not charged, so the same postings read the same whatever
// order built them, a restore's included.
func (ix *Index) MemBytes() int64 {
	n := ix.mem.Bytes()
	for c := range ix.terms {
		n += ix.terms[c].Bytes()
	}
	return n
}
