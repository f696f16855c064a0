// The indicant summary of a bundle, in the two forms a bundle's life
// goes through (DESIGN.md §2e, §2g).
//
// Bundle sizes follow a power law (the paper's Fig. 6(a)): on the
// benchmark's crawl 72 % of bundles never hold a second message and
// 98 % never reach PruneMinNodes. Below that size nothing reads a node
// index — AddScratch scores every node — and the Eq. 1 lookups face a
// few dozen terms at most, so the whole summary is one exact-fit table
// of 8-byte (term ID, count) rows scanned linearly. The absorb that
// appends node number PruneMinNodes builds the hash form from the
// nodes and drops the table; the representation switches at the size
// where the algorithm reading it does, and is a function of the nodes
// alone, so a decoded or replayed bundle is in the form it was saved in.
package bundle

import (
	"sort"

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

// posting is one term of an indexed bundle: how many messages carry it,
// and the ascending ids of those nodes. The node lists are the
// bundle-local analogue of the summary index and make Algorithm 2
// sublinear: the pruned scans visit only nodes sharing an indicant with
// the incoming message (prune.go).
type posting struct {
	count int
	nodes []int32
}

// index is the summary of a bundle of PruneMinNodes nodes or more, every
// class in one map.
type index map[termdict.ID]posting

// Count reports how many of the bundle's messages carry term (for a
// user: how many the user posted) — the summary lookup of Eq. 1 and
// Eq. 7, and the score.BundleStats implementation.
//
//provex:hotpath Eq. 1 looks up every indicant of the message in every scored candidate
func (b *Bundle) Count(term termdict.ID) int {
	if b.idx != nil {
		return b.idx[term].count
	}
	if r := b.findRow(term); r != nil {
		return int(r.count)
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

// nodesWith returns the ascending ids of the nodes carrying term. Only
// the pruned scans ask, and they run from PruneMinNodes nodes up, where
// the index exists.
func (b *Bundle) nodesWith(term termdict.ID) []int32 { return b.idx[term].nodes }

// each calls fn for every (term, count) of the summary, in unspecified
// order, whichever form the summary is in.
func (b *Bundle) each(fn func(term termdict.ID, count int)) {
	if b.idx != nil {
		for t, p := range b.idx {
			fn(t, p.count)
		}
		return
	}
	for _, r := range b.rows {
		fn(r.term, int(r.count))
	}
}

// AppendTerms appends the bundle's distinct terms, in unspecified order:
// what the summary index must drop when the bundle leaves memory.
func (b *Bundle) AppendTerms(dst []termdict.ID) []termdict.ID {
	b.each(func(t termdict.ID, _ int) { dst = append(dst, t) })
	return dst
}

// sortedTerms returns the distinct terms of class c ordered by the term
// string, never by ID: every process numbers terms its own way.
func (b *Bundle) sortedTerms(c termdict.Class) []string {
	var out []string
	b.each(func(t termdict.ID, _ int) {
		if t.Class() == c {
			out = append(out, termdict.Term(t))
		}
	})
	sort.Strings(out)
	return out
}

// absorbSummary merges the newest node's indicants into the summary and
// returns the bytes that adds to the memory estimate. It runs right
// after the node is appended, so len(b.nodes) decides the form: rows
// below PruneMinNodes, the index from the absorb that reaches it.
func (b *Bundle) absorbSummary(doc score.Doc) int64 {
	switch {
	case b.idx != nil:
		return b.idx.absorb(doc, int32(len(b.nodes)-1))
	case len(b.nodes) < PruneMinNodes:
		return b.absorbRows(doc)
	default:
		return b.buildIndex()
	}
}

// absorbRows is absorbSummary below the threshold. The table grows by
// exactly the rows the message adds — counted first, then one
// allocation — because append's doubling would leave more slack than
// rows across a pool of mostly single-message bundles.
func (b *Bundle) absorbRows(doc score.Doc) int64 {
	terms := doc.Indicants()
	fresh := 0
	for _, t := range terms {
		if b.findRow(t) == nil {
			fresh++ // a term repeated inside the message counts twice: slack, not an error
		}
	}
	if fresh > cap(b.rows)-len(b.rows) {
		grown := make([]row, len(b.rows), len(b.rows)+fresh)
		copy(grown, b.rows)
		b.rows = grown
	}
	var added int64
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

// buildIndex replaces the row table with the hash form, built from the
// nodes (the newest included). It returns the change in the memory
// estimate: the index's cost minus the rows released.
func (b *Bundle) buildIndex() int64 {
	added := metrics.SummaryIndexBase - int64(len(b.rows))*metrics.SummaryRowCost
	b.idx = make(index, len(b.rows))
	for i := range b.nodes {
		added += b.idx.absorb(b.nodes[i].Doc, int32(i))
	}
	b.rows = nil
	return added
}

// absorb records node id's indicants and returns the bytes charged: a
// map entry per new term, a reference per node-list slot. Ids arrive in
// ascending order, so a term repeated inside one message shows as a
// repeated tail id and is listed once.
func (idx index) absorb(doc score.Doc, id int32) int64 {
	var added int64
	for _, t := range doc.Indicants() {
		p := idx[t]
		if p.count == 0 {
			added += metrics.MapEntryCost
		}
		p.count++
		if n := len(p.nodes); n == 0 || p.nodes[n-1] != id {
			p.nodes = append(p.nodes, id)
			added += metrics.NodeRefCost
		}
		idx[t] = p
	}
	return added
}
