// Package bundle implements the provenance bundle of Definition 3: a
// non-overlapping group of related messages arranged in a parent-linked
// forest whose edges are the provenance trail, plus the indicant
// summary (hashtag/URL/keyword/user counts) that the summary index and
// the Eq. 1 scorer read.
//
// A bundle also carries Algorithm 2 — allocating a newly matched
// message to its best parent node inside the group.
package bundle

import (
	"fmt"
	"slices"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// ID identifies a bundle for the life of the system, across memory and
// the disk back-end.
type ID uint64

// MaxID is the highest bundle ID: a bundle holds its ID in 4 bytes,
// and the summary index a posting in 31 bits.
const MaxID ID = 1<<31 - 1

// NoParent marks a node with no provenance parent (the root of a trail).
const NoParent int32 = -1

// Node is one message inside a bundle with its provenance edge: the
// index of its parent node and the Table II connection type. The Doc is
// one pointer to the message's record, so the node packs into 16 bytes.
// The edge's Eq. 5 score is not stored: it is a function of the two
// messages and the engine's weights (EdgeScore).
type Node struct {
	Doc    score.Doc
	Parent int32
	Conn   score.ConnectionType
}

// Bundle is Definition 3's message group. Not safe for concurrent use;
// the engine serialises access.
//
// A pool builds one for a bundle of two messages or more, or a closed
// one: an open bundle of one message, most bundles, is held as its
// record alone (Ref), so the struct is not a per-message cost. Its
// fields are still ordered to fill the 80-byte size class, and none
// holds what another derives (the start of the extent is the first
// node's date while nodes are in date order).
type Bundle struct {
	nodes []Node // grown by appendGrown: capacity is a function of length

	// The indicant summary (summary.go): the one node's record, a row
	// table from two nodes, the index from PruneMinNodes up — never two.
	rows []row
	idx  *index

	// end is the newest message date, in unix nanoseconds: Algorithm 2's
	// extent (lines 8–13, with StartDate), and when the bundle last
	// absorbed a message in stream time — Eq. 1's freshness and the
	// date(B) of Equation 6.
	end int64

	memBytes int64

	id     uint32 // at most MaxID
	closed bool

	// timeOrdered reports that nodes were appended in non-decreasing
	// message-date order, which makes node id order equal time order.
	// The streaming ingest path always preserves this; it only breaks
	// under out-of-order replays (a re-fed stream, merges), where
	// placement falls back from the time-bounded scan to the reference
	// scan (prune.go).
	timeOrdered bool
}

// New creates an empty bundle. An id of 0 or past MaxID panics: the
// pool never allocates one, and decode refuses it.
func New(id ID) *Bundle {
	if id == 0 || id > MaxID {
		panic(fmt.Sprintf("bundle: ID %d outside 1..%d", id, MaxID))
	}
	return &Bundle{id: uint32(id), memBytes: metrics.BundleBase, timeOrdered: true}
}

// ID returns the bundle identifier.
func (b *Bundle) ID() ID { return ID(b.id) }

// Size returns the number of messages in the bundle.
func (b *Bundle) Size() int { return len(b.nodes) }

// Closed reports whether the bundle stopped accepting messages
// (Section V-B's bundle size constraint).
func (b *Bundle) Closed() bool { return b.closed }

// Close marks the bundle closed. Closing is one-way.
func (b *Bundle) Close() { b.closed = true }

// StartDate and LastDate bound the message dates inside the bundle, in
// unix nanoseconds (tweet.Time renders them); both are 0 for an empty
// bundle. While nodes are in date order the start is the first node's
// date; otherwise it takes a scan.
func (b *Bundle) StartDate() int64 {
	if len(b.nodes) == 0 {
		return 0
	}
	start := b.nodes[0].Doc.Date()
	if !b.timeOrdered {
		for _, n := range b.nodes[1:] {
			start = min(start, n.Doc.Date())
		}
	}
	return start
}

// Nodes exposes the node slice read-only by convention (callers must
// not mutate). Index i is the node ID used in Parent links.
func (b *Bundle) Nodes() []Node { return b.nodes }

// EdgeScore is the Eq. 5 score of node i's provenance edge under w, 0
// for a root: the score Algorithm 2 chose the parent by, when w are the
// weights it placed the node under. Both scans compute it as
// score.MessageSim does, so this is that same float64, bit for bit.
func (b *Bundle) EdgeScore(w score.MessageWeights, i int) float64 {
	n := b.nodes[i]
	if n.Parent == NoParent {
		return 0
	}
	return score.MessageSim(w, b.nodes[n.Parent].Doc, n.Doc).Total
}

// MemBytes is the analytic memory footprint estimate of the bundle.
func (b *Bundle) MemBytes() int64 { return b.memBytes }

// LastDate is the newest message date; it implements score.BundleStats
// (with Count, summary.go).
func (b *Bundle) LastDate() int64 { return b.end }

// ParentCandidate reports one Algorithm 2 evaluation to an observer:
// an existing node considered as parent for the incoming message, with
// the Eq. 5 score split into its Eq. 2–4, keyword and RT components.
type ParentCandidate struct {
	Node  int
	Msg   tweet.ID
	Conn  score.ConnectionType
	Parts score.MessageSimParts
}

// ParentObserver receives each parent candidate a placement scores,
// with the score that was compared; the decision tracer passes one to
// AddScratch.
type ParentObserver func(ParentCandidate)

// AddExhaustive is the reference Algorithm 2 implementation: score
// every node of the bundle against doc with Eq. 5. It is the
// specification the pruned path (AddScratch) is differentially tested
// against, and the scan AddScratch itself takes for small and
// out-of-order bundles. obs may be nil.
func (b *Bundle) AddExhaustive(w score.MessageWeights, doc score.Doc, obs ParentObserver) int {
	n, _ := b.addExhaustive(w, doc, obs)
	return n
}

func (b *Bundle) addExhaustive(w score.MessageWeights, doc score.Doc, obs ParentObserver) (int, PlaceStats) {
	if b.closed {
		panic("bundle: Add to closed bundle")
	}
	stats := PlaceStats{Nodes: len(b.nodes), Exhaustive: true}
	parent := NoParent
	best := 0.0
	conn := score.ConnNone
	for i := range b.nodes {
		c := score.Classify(b.nodes[i].Doc, doc)
		if c == score.ConnNone {
			continue
		}
		stats.Candidates++
		stats.Scored++
		parts := score.MessageSim(w, b.nodes[i].Doc, doc)
		if obs != nil {
			obs(ParentCandidate{Node: i, Msg: b.nodes[i].Doc.ID(), Conn: c, Parts: parts})
		}
		if s := parts.Total; s > best || (s == best && parent == NoParent) {
			best, parent, conn = s, int32(i), c
		}
	}
	b.nodes = appendGrown(b.nodes, Node{Doc: doc, Parent: parent, Conn: conn}, metrics.NodeBase)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}

// absorb merges doc's indicants into the summary and updates extent
// and the memory estimate. It must run immediately after the
// node is appended: the summary's form and its node-index entries
// follow the id of the newest node.
func (b *Bundle) absorb(doc score.Doc) {
	b.memBytes += metrics.NodeBase + recordBytes(doc) + b.absorbSummary(doc)

	if date := doc.Date(); len(b.nodes) > 1 && date < b.end {
		b.timeOrdered = false
	} else {
		b.end = date
	}
}

// SummaryWords returns the k most frequent summary terms — the "Summary
// Words" column of the paper's Figure 2 result list. Hashtags count
// double so topical tags float to the front like the paper's examples.
func (b *Bundle) SummaryWords(k int) []string {
	merged := make(map[string]int, b.numTerms())
	b.each(func(t termdict.ID, n int) { tally(merged, t, n) })
	return tokenizer.TopTerms(merged, k)
}

// tally adds term t, carried by n messages, to a summary-word count.
func tally(merged map[string]int, t termdict.ID, n int) {
	switch t.Class() {
	case termdict.Tag:
		merged[termdict.Term(t)] += 2 * n
	case termdict.URL, termdict.Keyword:
		merged[termdict.Term(t)] += n
	}
}

// Validate checks the structural invariants of a bundle: parents
// precede children (the stream order guarantees trails point backwards
// in time), the summary is in the form its size calls for, its counts
// match node contents and, in the index, every node list is strictly
// ascending and names exactly the nodes that carry its term, and the
// time extent bounds every message. It is an oracle for tests (codec
// round trips, the summary fuzzer, restored pools); no production path
// calls it.
func (b *Bundle) Validate() error {
	size := len(b.nodes)
	if indexed, rowed := b.idx != nil, b.rows != nil; indexed != (size >= PruneMinNodes) || rowed != (size >= 2 && !indexed) {
		return fmt.Errorf("bundle %d: %d nodes with indexed=%v and %d summary rows",
			b.id, size, indexed, len(b.rows))
	}
	want := map[termdict.ID][]int32{}
	start := b.StartDate()
	for i, n := range b.nodes {
		if n.Parent != NoParent && (n.Parent < 0 || int(n.Parent) >= i) {
			return fmt.Errorf("bundle %d: node %d has invalid parent %d", b.id, i, n.Parent)
		}
		if d := n.Doc.Date(); d < start || d > b.end {
			return fmt.Errorf("bundle %d: node %d date %v outside extent [%v, %v]",
				b.id, i, n.Doc.Time(), tweet.Time(start), tweet.Time(b.end))
		}
		for _, t := range n.Doc.Indicants() {
			want[t] = append(want[t], int32(i))
		}
	}
	var err error
	b.each(func(t termdict.ID, got int) {
		if err != nil {
			return
		}
		if got != len(want[t]) {
			err = fmt.Errorf("bundle %d: %s %q count %d, nodes imply %d",
				b.id, t.Class(), termdict.Term(t), got, len(want[t]))
		} else if b.idx != nil {
			err = checkNodeList(b.ID(), t, b.nodesWith(t), want[t])
		}
		delete(want, t)
	})
	if len(want) > 0 && err == nil {
		err = fmt.Errorf("bundle %d: summary lacks %d terms the nodes carry", b.id, len(want))
	}
	return err
}

// checkNodeList checks one term's node list in the index against the
// ascending ids of the nodes that carry the term.
func checkNodeList(id ID, t termdict.ID, got, want []int32) error {
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return fmt.Errorf("bundle %d: %s %q node list %v is not strictly ascending",
				id, t.Class(), termdict.Term(t), got)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("bundle %d: %s %q node list %v, nodes imply %v",
			id, t.Class(), termdict.Term(t), got, want)
	}
	return nil
}
