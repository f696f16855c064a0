// The indicant summary of a bundle, in the three forms a bundle's life
// goes through (DESIGN.md §2e, §2g).
//
// Bundle sizes follow a power law (the paper's Fig. 6(a)): on the
// benchmark's crawl 72 % of bundles never hold a second message and
// 98 % never reach PruneMinNodes. The form is a function of the node
// count alone, so a decoded or replayed bundle is in the form it was
// saved in:
//
//   - One node: the summary is the node's record. Its indicants are a
//     set (score.Doc), each carried by one message, so the bundle holds
//     no table of its own.
//   - Two nodes up to PruneMinNodes: one exact-fit table of 8-byte
//     (term ID, count) rows, scanned linearly. Nothing reads a node
//     index at these sizes — AddScratch scores every node — and the
//     Eq. 1 lookups face a few dozen terms at most. The absorb that
//     appends the second node builds it from both records.
//   - PruneMinNodes nodes and more: the index, whose node lists drive
//     the pruned Algorithm 2 scans (prune.go). The absorb that appends
//     node number PruneMinNodes builds it from the nodes and drops the
//     table; the representation switches at the size where the
//     algorithm reading it does.
package bundle

import (
	"slices"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
)

// row is one entry of a small bundle's summary table: a term of any
// class (the class is in the ID) and how many messages carry it.
type row struct {
	term  termdict.ID
	count uint32
}

// index is the summary of a bundle of PruneMinNodes nodes or more: for
// every term, the ascending ids of the nodes carrying it. The lists are
// the bundle-local analogue of the summary index and make Algorithm 2
// sublinear: the pruned scans visit only nodes sharing an indicant with
// the incoming message (prune.go). A term's count is its list's length,
// since a record carries each indicant once.
//
// Most terms of a bundle sit on one node, so a term costs a 4-byte
// reference in refs and nothing more until it reaches a second node:
// the reference is a position in single, the one shared list of
// single-node ids, or — with listRef set — the index of the term's own
// list in lists. The build gives a term already on several nodes its
// list at once; a term that moves to lists later leaves its single slot
// behind unused; single only grows, like the bundle. Every array grows
// on the size-class schedule of grow.go.
type index struct {
	refs   map[termdict.ID]uint32
	single []int32
	lists  [][]int32
}

// listRef marks a reference into index.lists.
const listRef = 1 << 31

// The element sizes the index's arrays grow by (appendGrown): a node id
// in single or a list, and a list's slice header in lists.
const (
	nodeIDSize     = 4
	listHeaderSize = 24
)

// Count reports how many of the bundle's messages carry term (for a
// user: how many the user posted) — the summary lookup of Eq. 1 and
// Eq. 7, and the score.BundleStats implementation.
//
//provex:hotpath Eq. 1 looks up every indicant of the message in every scored candidate
func (b *Bundle) Count(term termdict.ID) int {
	switch {
	case b.idx != nil:
		if r, ok := b.idx.refs[term]; ok {
			return b.idx.count(r)
		}
	case len(b.nodes) == 1:
		if slices.Contains(b.nodes[0].Doc.Indicants(), term) {
			return 1
		}
	default:
		if r := b.findRow(term); r != nil {
			return int(r.count)
		}
	}
	return 0
}

// findRow scans the table for term, nil when absent.
//
//provex:hotpath the small-bundle half of Count
func (b *Bundle) findRow(term termdict.ID) *row {
	for i := range b.rows {
		if r := &b.rows[i]; r.term == term {
			return r
		}
	}
	return nil
}

// nodesWith returns the ascending ids of the nodes carrying term, nil
// when none does. Only the pruned scans ask, and they run from
// PruneMinNodes nodes up, where the index exists.
//
//provex:hotpath the node lists the pruned scans merge
func (b *Bundle) nodesWith(term termdict.ID) []int32 {
	if r, ok := b.idx.refs[term]; ok {
		return b.idx.list(r)
	}
	return nil
}

// count is the length of the node list reference r names, read without
// touching single.
//
//provex:hotpath Count's large-bundle half
func (x *index) count(r uint32) int {
	if r&listRef != 0 {
		return len(x.lists[r&^listRef])
	}
	return 1
}

// list returns the node list reference r names, a view into the index:
// a one-element view of single for a term on one node.
//
//provex:hotpath the second half of nodesWith
func (x *index) list(r uint32) []int32 {
	if r&listRef != 0 {
		return x.lists[r&^listRef]
	}
	return x.single[r : r+1 : r+1]
}

// each calls fn for every (term, count) of the summary, in unspecified
// order, whichever form the summary is in.
func (b *Bundle) each(fn func(term termdict.ID, count int)) {
	switch {
	case b.idx != nil:
		for t, r := range b.idx.refs {
			fn(t, b.idx.count(r))
		}
	case len(b.nodes) == 1:
		for _, t := range b.nodes[0].Doc.Indicants() {
			fn(t, 1)
		}
	default:
		for _, r := range b.rows {
			fn(r.term, int(r.count))
		}
	}
}

// numTerms is the number of distinct terms in the summary.
func (b *Bundle) numTerms() int {
	switch {
	case b.idx != nil:
		return len(b.idx.refs)
	case len(b.nodes) == 1:
		return len(b.nodes[0].Doc.Indicants())
	default:
		return len(b.rows)
	}
}

// AppendTerms appends the bundle's distinct terms, in unspecified order:
// what the summary index must drop when the bundle leaves memory.
func (b *Bundle) AppendTerms(dst []termdict.ID) []termdict.ID {
	b.each(func(t termdict.ID, _ int) { dst = append(dst, t) })
	return dst
}

// absorbSummary merges the newest node's indicants into the summary and
// returns the bytes that adds to the memory estimate. It runs right
// after the node is appended, so len(b.nodes) decides the form: the
// record alone for one node, rows below PruneMinNodes, the index from
// the absorb that reaches it.
func (b *Bundle) absorbSummary(doc score.Doc) int64 {
	switch n := len(b.nodes); {
	case b.idx != nil:
		return b.idx.absorb(doc, int32(n-1))
	case n == 1:
		return 0
	case n < PruneMinNodes:
		return b.absorbRows(doc)
	default:
		return b.buildIndex()
	}
}

// absorbRows is absorbSummary below the threshold. The table grows by
// exactly the rows the message adds — counted first, then one
// allocation — because append's doubling would leave more slack than
// rows across a pool of mostly small bundles. The second node's absorb
// first turns the first node's record into rows.
func (b *Bundle) absorbRows(doc score.Doc) int64 {
	var first []termdict.ID
	if len(b.nodes) == 2 {
		first = b.nodes[0].Doc.Indicants()
	}
	terms := doc.Indicants()
	fresh := len(first)
	for _, t := range terms {
		if b.findRow(t) == nil && !slices.Contains(first, t) {
			fresh++
		}
	}
	if fresh > cap(b.rows)-len(b.rows) {
		grown := make([]row, len(b.rows), len(b.rows)+fresh)
		copy(grown, b.rows)
		b.rows = grown
	}
	for _, t := range first {
		b.rows = append(b.rows, row{term: t, count: 1})
	}
	added := int64(len(first)) * metrics.SummaryRowCost
	for _, t := range terms {
		if r := b.findRow(t); r != nil {
			r.count++
			continue
		}
		b.rows = append(b.rows, row{term: t, count: 1})
		added += metrics.SummaryRowCost
	}
	return added
}

// buildIndex replaces the row table with the index, built from the
// nodes (the newest included). It returns the change in the memory
// estimate: the index's cost minus the rows released. The rows count
// every term of the older nodes, so each array is made once, at the
// capacity its final length calls for: single for the terms on one
// node, lists for the terms on several, and each of those lists. The
// charges are absorb's for the same nodes.
func (b *Bundle) buildIndex() int64 {
	newest := b.nodes[len(b.nodes)-1].Doc.Indicants()
	count := func(t termdict.ID) int {
		n := 0
		if r := b.findRow(t); r != nil {
			n = int(r.count)
		}
		if slices.Contains(newest, t) {
			n++
		}
		return n
	}
	singles, multi := 0, 0
	for _, r := range b.rows {
		if count(r.term) > 1 {
			multi++
		} else {
			singles++
		}
	}
	for _, t := range newest {
		if b.findRow(t) == nil {
			singles++
		}
	}
	x := &index{
		refs:   make(map[termdict.ID]uint32, singles+multi),
		single: makeFor[int32](singles, nodeIDSize),
		lists:  makeFor[[]int32](multi, listHeaderSize),
	}
	added := metrics.SummaryIndexBase - int64(len(b.rows))*metrics.SummaryRowCost
	for i := range b.nodes {
		for _, t := range b.nodes[i].Doc.Indicants() {
			added += metrics.NodeRefCost
			if r, ok := x.refs[t]; ok {
				x.lists[r&^listRef] = append(x.lists[r&^listRef], int32(i))
				continue
			}
			added += metrics.MapEntryCost
			if n := count(t); n > 1 {
				x.refs[t] = listRef | uint32(len(x.lists))
				x.lists = append(x.lists, append(makeFor[int32](n, nodeIDSize), int32(i)))
				added += metrics.NodeListCost
			} else {
				x.refs[t] = uint32(len(x.single))
				x.single = append(x.single, int32(i))
			}
		}
	}
	b.idx, b.rows = x, nil
	return added
}

// absorb records node id's indicants and returns the bytes charged: a
// reference per new term and a node-list entry per (term, node) — one
// in single for a term's first node, and a list header when its second
// node moves it to a list of its own. Ids arrive in ascending order, so
// every list stays sorted.
func (x *index) absorb(doc score.Doc, id int32) int64 {
	var added int64
	for _, t := range doc.Indicants() {
		r, ok := x.refs[t]
		switch {
		case !ok:
			x.refs[t] = uint32(len(x.single))
			x.single = appendGrown(x.single, id, nodeIDSize)
			added += metrics.MapEntryCost + metrics.NodeRefCost
		case r&listRef != 0:
			x.lists[r&^listRef] = appendGrown(x.lists[r&^listRef], id, nodeIDSize)
			added += metrics.NodeRefCost
		default:
			x.refs[t] = listRef | uint32(len(x.lists))
			x.lists = appendGrown(x.lists, []int32{x.single[r], id}, listHeaderSize)
			added += metrics.NodeListCost + metrics.NodeRefCost
		}
	}
	return added
}
