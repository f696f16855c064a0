// The indicant summary of a bundle, in the two forms a bundle's life
// goes through (DESIGN.md §2e, §2g).
//
// Bundle sizes follow a power law (the paper's Fig. 6(a)): on the
// benchmark's crawl 72 % of bundles never hold a second message and
// 98 % never reach PruneMinNodes. Below that size nothing reads a node
// index — AddScratch scores every node — and the Eq. 1 lookups face a
// few dozen terms at most, so the whole summary is one exact-fit table
// of (class, term, count) rows scanned linearly. The absorb that
// appends node number PruneMinNodes builds the hash form from the
// nodes and drops the table; the representation switches at the size
// where the algorithm reading it does, and is a function of the nodes
// alone, so a decoded or replayed bundle is in the form it was saved in.
package bundle

import (
	"sort"

	"provex/internal/metrics"
	"provex/internal/score"
)

// class is one of the four indicant classes a summary counts.
type class uint8

const (
	classTag class = iota
	classURL
	classKey
	classUser
	numClasses
)

var classNames = [numClasses]string{"tag", "url", "key", "user"}

// row is one entry of a small bundle's summary table: 24 bytes, the
// term's bytes shared with the message that carried it.
type row struct {
	term  string
	count int32
	class class
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

// index is the summary of a bundle of PruneMinNodes nodes or more.
type index [numClasses]map[string]posting

// classTerms lists doc's indicants by summary class. user backs the
// one-element user list so the result can stay on the caller's stack.
func classTerms(doc score.Doc, user *[1]string) [numClasses][]string {
	user[0] = doc.Msg.User
	return [numClasses][]string{
		classTag:  doc.Msg.Hashtags,
		classURL:  doc.Msg.URLs,
		classKey:  doc.Keywords,
		classUser: user[:],
	}
}

// count is the summary lookup behind TagCount, URLCount, KeywordCount
// and HasUser.
//
//provex:hotpath Eq. 1 looks up every indicant of the message in every scored candidate
func (b *Bundle) count(c class, term string) int {
	if b.idx != nil {
		return b.idx[c][term].count
	}
	if r := b.findRow(c, term); r != nil {
		return int(r.count)
	}
	return 0
}

// findRow scans the table for (c, term), nil when absent. The compare
// is class, then length, then bytes; interned keywords usually stop at
// the pointer-equal fast path.
//
//provex:hotpath the small-bundle half of count
func (b *Bundle) findRow(c class, term string) *row {
	for i := range b.rows {
		if r := &b.rows[i]; r.class == c && r.term == term {
			return r
		}
	}
	return nil
}

// nodesWith returns the ascending ids of the nodes carrying term. Only
// the pruned scans ask, and they run from PruneMinNodes nodes up, where
// the index exists.
func (b *Bundle) nodesWith(c class, term string) []int32 { return b.idx[c][term].nodes }

// each calls fn for every (term, count) of class c, in unspecified
// order, whichever form the summary is in.
func (b *Bundle) each(c class, fn func(term string, count int)) {
	if b.idx != nil {
		for t, p := range b.idx[c] {
			fn(t, p.count)
		}
		return
	}
	for _, r := range b.rows {
		if r.class == c {
			fn(r.term, int(r.count))
		}
	}
}

// sortedTerms returns the distinct terms of class c in ascending order.
func (b *Bundle) sortedTerms(c class) []string {
	var out []string
	b.each(c, func(t string, _ int) { out = append(out, t) })
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
	var user [1]string
	terms := classTerms(doc, &user)
	fresh := 0
	for c, ts := range terms {
		for _, t := range ts {
			if b.findRow(class(c), t) == nil {
				fresh++ // a term repeated inside the message counts twice: slack, not an error
			}
		}
	}
	if fresh > cap(b.rows)-len(b.rows) {
		grown := make([]row, len(b.rows), len(b.rows)+fresh)
		copy(grown, b.rows)
		b.rows = grown
	}
	var added int64
	for c, ts := range terms {
		for _, t := range ts {
			if r := b.findRow(class(c), t); r != nil {
				r.count++
				continue
			}
			b.rows = append(b.rows, row{term: t, count: 1, class: class(c)})
			added += metrics.SummaryRowCost
		}
	}
	return added
}

// buildIndex replaces the row table with the hash form, built from the
// nodes (the newest included). It returns the change in the memory
// estimate: the index's cost minus the rows released.
func (b *Bundle) buildIndex() int64 {
	var sizes [numClasses]int
	var added int64 = metrics.SummaryIndexBase
	for _, r := range b.rows {
		sizes[r.class]++
		added -= metrics.SummaryRowCost
	}
	b.idx = new(index)
	for c := range b.idx {
		b.idx[c] = make(map[string]posting, sizes[c])
	}
	for i := range b.nodes {
		added += b.idx.absorb(b.nodes[i].Doc, int32(i))
	}
	b.rows = nil
	return added
}

// absorb records node id's indicants and returns the bytes charged: a
// map entry and its key per new term, a reference per node-list slot.
// Ids arrive in ascending order, so a term repeated inside one message
// shows as a repeated tail id and is listed once.
func (idx *index) absorb(doc score.Doc, id int32) int64 {
	var user [1]string
	var added int64
	for c, ts := range classTerms(doc, &user) {
		m := idx[c]
		for _, t := range ts {
			p := m[t]
			if p.count == 0 {
				added += metrics.MapEntryCost + metrics.StringCost(t)
			}
			p.count++
			if n := len(p.nodes); n == 0 || p.nodes[n-1] != id {
				p.nodes = append(p.nodes, id)
				added += metrics.NodeRefCost
			}
			m[t] = p
		}
	}
	return added
}
