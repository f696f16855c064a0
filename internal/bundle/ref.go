package bundle

import (
	"slices"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
)

// The pool's form of a bundle is a function of its size, as the
// summary's form is (summary.go). Bundle sizes follow the paper's power
// law (Fig. 6(a)): on the seed-1 crawl 72 % of the live bundles hold one
// message, and a Bundle of one message is an 80-byte struct and a
// 16-byte node array around the message's record, which already holds
// everything such a bundle knows. So an open bundle of one message is
// held as that record alone, and the Bundle is built when a second
// message joins (Expand, "promotion"). A closed bundle stays a Bundle:
// the record has no closed flag.

// Ref is a live bundle in the form a pool holds it: a Bundle, or — for
// an open bundle of one root message — that message's record alone
// (Single). It is a value of three words that Eq. 1, Eq. 7, refinement
// and the checkpoint read either form through without building a
// Bundle. The zero Ref is no bundle.
type Ref struct {
	b   *Bundle
	doc score.Doc // the one message of the record form; unset with b
	id  ID
}

// Ref returns b's reference in the Bundle form, whatever its size;
// Compact gives the form a pool holds it in.
func (b *Bundle) Ref() Ref { return Ref{b: b, id: b.ID()} }

// Single returns the reference of the open bundle id that holds doc
// alone, in the record form.
func Single(id ID, doc score.Doc) Ref { return Ref{doc: doc, id: id} }

// Compact returns r in the form a pool holds it: the record form for an
// open Bundle of one root message, r itself otherwise.
func (r Ref) Compact() Ref {
	if b := r.b; b != nil && len(b.nodes) > 0 && heldAsRecord(b.closed, len(b.nodes), b.nodes[0]) {
		return Single(r.id, b.nodes[0].Doc)
	}
	return r
}

// heldAsRecord reports whether a bundle of n nodes, the first of them
// first, is held in the record form: open, one node, a root (whose
// connection is none, as Add makes it).
func heldAsRecord(closed bool, n int, first Node) bool {
	return !closed && n == 1 && first.Parent == NoParent && first.Conn == score.ConnNone
}

// IsZero reports whether r is no bundle.
func (r Ref) IsZero() bool { return r.id == 0 }

// ID returns the bundle identifier.
func (r Ref) ID() ID { return r.id }

// Bundle returns the Bundle r holds, nil in the record form.
func (r Ref) Bundle() *Bundle { return r.b }

// First returns the bundle's first message, the one that opened it.
func (r Ref) First() score.Doc {
	if r.b != nil {
		return r.b.nodes[0].Doc
	}
	return r.doc
}

// Size returns the number of messages in the bundle.
func (r Ref) Size() int {
	if r.b != nil {
		return len(r.b.nodes)
	}
	return 1
}

// Closed reports whether the bundle stopped accepting messages; a
// record never has.
func (r Ref) Closed() bool { return r.b != nil && r.b.closed }

// LastDate is the newest message date, in unix nanoseconds.
func (r Ref) LastDate() int64 {
	if r.b != nil {
		return r.b.end
	}
	return r.doc.Date()
}

// MemBytes is the analytic memory estimate of the bundle: a record's is
// the record's alone (the pool prices the slot that holds it).
func (r Ref) MemBytes() int64 {
	if r.b != nil {
		return r.b.memBytes
	}
	return recordBytes(r.doc)
}

// Stats is the bundle's summary as the Eq. 1 and Eq. 7 lookups read it:
// the Bundle, or the record itself. Either fits an interface without an
// allocation.
//
//provex:hotpath Eq. 1 reads every scored candidate through it
func (r Ref) Stats() score.BundleStats {
	if r.b != nil {
		return r.b
	}
	return (*single)(r.doc.Msg)
}

// AppendTerms appends the bundle's distinct terms, in unspecified order.
func (r Ref) AppendTerms(dst []termdict.ID) []termdict.ID {
	if r.b != nil {
		return r.b.AppendTerms(dst)
	}
	return append(dst, r.doc.Indicants()...)
}

// SummaryWords returns the k most frequent summary terms, as the
// Bundle's SummaryWords does.
func (r Ref) SummaryWords(k int) []string {
	if r.b != nil {
		return r.b.SummaryWords(k)
	}
	terms := r.doc.Indicants()
	merged := make(map[string]int, len(terms))
	for _, t := range terms {
		tally(merged, t, 1)
	}
	return tokenizer.TopTerms(merged, k)
}

// AppendMarshal appends the bundle's encoding to buf. A record encodes
// as the Bundle Expand would build: open, one node, a root with no
// connection.
func (r Ref) AppendMarshal(buf []byte) []byte {
	if r.b != nil {
		return r.b.AppendMarshal(buf)
	}
	buf = appendHeader(buf, r.id, false, 1)
	return appendNode(buf, NoParent, score.ConnNone, r.doc)
}

// Expand returns the bundle as a Bundle: the one r holds, or, for a
// record, a new Bundle in exactly the state New and AddScratch of the message
// leave. The pool promotes a record through it when a second message
// joins; anything else that builds one from a record holds a copy the
// pool does not.
func (r Ref) Expand() *Bundle {
	if r.b != nil {
		return r.b
	}
	b := New(r.id)
	b.nodes = appendGrown(b.nodes, Node{Doc: r.doc, Parent: NoParent, Conn: score.ConnNone}, metrics.NodeBase)
	b.absorb(r.doc)
	return b
}

// recordBytes is the estimate of a message's record: its header, its
// term list and its text.
func recordBytes(doc score.Doc) int64 {
	return metrics.MessageBase + int64(len(doc.Terms()))*metrics.TermRefCost + int64(doc.TextLen())
}

// single is the summary of a bundle in the record form: the message's
// record itself, under a type of its own so that it implements
// score.BundleStats. Being a pointer, it fits an interface without an
// allocation.
type single score.Msg

// Count is 1 for each of the message's indicants, as a Bundle of the one
// node counts it.
//
//provex:hotpath Eq. 1 looks up every indicant of the message in every scored candidate
func (s *single) Count(term termdict.ID) int {
	if slices.Contains(score.Doc{Msg: (*score.Msg)(s)}.Indicants(), term) {
		return 1
	}
	return 0
}

// LastDate is the message's date.
func (s *single) LastDate() int64 { return (*score.Msg)(s).Date() }
