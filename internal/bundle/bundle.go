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
	"time"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// ID identifies a bundle for the life of the system, across memory and
// the disk back-end.
type ID uint64

// NoParent marks a node with no provenance parent (the root of a trail).
const NoParent int32 = -1

// Node is one message inside a bundle with its provenance edge: the
// index of its parent node, the Eq. 5 score of that edge, and the
// Table II connection type.
type Node struct {
	Doc    score.Doc
	Parent int32
	Score  float64
	Conn   score.ConnectionType
}

// Edge is a provenance connection in (parent, child) message-ID form —
// the unit the paper's accuracy/return evaluation counts.
type Edge struct {
	Parent tweet.ID
	Child  tweet.ID
}

// Bundle is Definition 3's message group. Not safe for concurrent use;
// the engine serialises access.
type Bundle struct {
	id    ID
	nodes []Node

	// The indicant summary (summary.go): a row table below PruneMinNodes
	// nodes, the hash index from there up — never both.
	rows []row
	idx  *index

	// Message-date extent (Algorithm 2 lines 8–13). end is also when the
	// bundle last absorbed a message in stream time — Eq. 1's freshness
	// and the date(B) of Equation 6.
	start, end time.Time
	closed     bool

	// timeOrdered reports that nodes were appended in non-decreasing
	// message-date order, which makes node id order equal time order.
	// The streaming ingest path always preserves this; it only breaks
	// under out-of-order replays (a re-fed stream, merges), where
	// placement falls back from the time-bounded scan to the reference
	// scan (prune.go).
	timeOrdered bool

	memBytes int64
}

// New creates an empty bundle.
func New(id ID) *Bundle {
	return &Bundle{id: id, memBytes: metrics.BundleBase, timeOrdered: true}
}

// ID returns the bundle identifier.
func (b *Bundle) ID() ID { return b.id }

// Size returns the number of messages in the bundle.
func (b *Bundle) Size() int { return len(b.nodes) }

// Closed reports whether the bundle stopped accepting messages
// (Section V-B's bundle size constraint).
func (b *Bundle) Closed() bool { return b.closed }

// Close marks the bundle closed. Closing is one-way.
func (b *Bundle) Close() { b.closed = true }

// StartTime and EndTime bound the message dates inside the bundle.
func (b *Bundle) StartTime() time.Time { return b.start }

// EndTime returns the newest message date.
func (b *Bundle) EndTime() time.Time { return b.end }

// Nodes exposes the node slice read-only by convention (callers must
// not mutate). Index i is the node ID used in Parent links.
func (b *Bundle) Nodes() []Node { return b.nodes }

// MemBytes is the analytic memory footprint estimate of the bundle.
func (b *Bundle) MemBytes() int64 { return b.memBytes }

// score.BundleStats implementation — read by Eq. 1.

// TagCount reports how many messages carry the hashtag.
func (b *Bundle) TagCount(tag string) int { return b.count(classTag, tag) }

// URLCount reports how many messages carry the URL.
func (b *Bundle) URLCount(u string) int { return b.count(classURL, u) }

// KeywordCount reports how many messages carry the keyword.
func (b *Bundle) KeywordCount(k string) int { return b.count(classKey, k) }

// HasUser reports whether user posted inside the bundle.
func (b *Bundle) HasUser(u string) bool { return b.count(classUser, u) > 0 }

// LastDate implements score.BundleStats.
func (b *Bundle) LastDate() time.Time { return b.end }

// Indicants returns the distinct hashtags, URLs, keywords and users of
// the bundle, each sorted — exactly the terms the summary index must
// drop when the bundle leaves memory.
func (b *Bundle) Indicants() (tags, urls, keys, users []string) {
	return b.sortedTerms(classTag), b.sortedTerms(classURL), b.sortedTerms(classKey), b.sortedTerms(classUser)
}

// Add allocates doc inside the bundle per Algorithm 2: collect the
// candidate nodes sharing any indicant, connect to the best-scoring one
// (Eq. 5), and widen the bundle's time extent. Returns the index of the
// inserted node. Adding to a closed bundle panics — the engine checks
// Closed before routing.
func (b *Bundle) Add(w score.MessageWeights, doc score.Doc) int {
	n, _ := b.AddScratch(w, doc, nil, nil)
	return n
}

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
			obs(ParentCandidate{Node: i, Msg: b.nodes[i].Doc.Msg.ID, Conn: c, Parts: parts})
		}
		if s := parts.Total; s > best || (s == best && parent == NoParent) {
			best, parent, conn = s, int32(i), c
		}
	}
	node := Node{Doc: doc, Parent: parent, Score: best, Conn: conn}
	b.nodes = append(b.nodes, node)
	b.absorb(doc)
	return len(b.nodes) - 1, stats
}

// absorb merges doc's indicants into the summary and updates extent
// and the memory estimate. It must run immediately after the
// node is appended: the summary's form and its node-index entries
// follow the id of the newest node.
func (b *Bundle) absorb(doc score.Doc) {
	m := doc.Msg
	refs := len(m.Hashtags) + len(m.URLs) + len(m.Mentions) + len(doc.Keywords)
	b.memBytes += metrics.NodeBase + metrics.MessageBase +
		metrics.StringCost(m.User) + metrics.StringCost(m.Text) + int64(refs)*metrics.TermRefCost +
		b.absorbSummary(doc)

	if b.start.IsZero() || m.Date.Before(b.start) {
		b.start = m.Date
	}
	if m.Date.Before(b.end) {
		b.timeOrdered = false
	} else {
		b.end = m.Date
	}
}

// Edges returns every provenance connection in the bundle.
func (b *Bundle) Edges() []Edge {
	var out []Edge
	for _, n := range b.nodes {
		if n.Parent == NoParent {
			continue
		}
		out = append(out, Edge{Parent: b.nodes[n.Parent].Doc.Msg.ID, Child: n.Doc.Msg.ID})
	}
	return out
}

// Roots returns the indices of nodes without parents — the origins of
// the bundle's provenance trails.
func (b *Bundle) Roots() []int {
	var out []int
	for i, n := range b.nodes {
		if n.Parent == NoParent {
			out = append(out, i)
		}
	}
	return out
}

// Children returns the node indices whose parent is i.
func (b *Bundle) Children(i int) []int {
	var out []int
	for j, n := range b.nodes {
		if n.Parent == int32(i) {
			out = append(out, j)
		}
	}
	return out
}

// SummaryWords returns the k most frequent summary terms — the "Summary
// Words" column of the paper's Figure 2 result list. Hashtags count
// double so topical tags float to the front like the paper's examples.
func (b *Bundle) SummaryWords(k int) []string {
	terms := len(b.rows)
	if b.idx != nil {
		terms = len(b.idx[classKey]) + len(b.idx[classTag]) + len(b.idx[classURL])
	}
	merged := make(map[string]int, terms)
	b.each(classKey, func(t string, n int) { merged[t] += n })
	b.each(classTag, func(t string, n int) { merged[t] += 2 * n })
	b.each(classURL, func(t string, n int) { merged[t] += n })
	return tokenizer.TopTerms(merged, k)
}

// Validate checks the structural invariants of a bundle: parents
// precede children (the stream order guarantees trails point backwards
// in time), summary counts match node contents, and the time extent
// bounds every message. Used by tests and the storage round-trip
// self-check.
func (b *Bundle) Validate() error {
	indexed := b.idx != nil
	if indexed != (len(b.nodes) >= PruneMinNodes) || (indexed && b.rows != nil) {
		return fmt.Errorf("bundle %d: %d nodes with indexed=%v and %d summary rows",
			b.id, len(b.nodes), indexed, len(b.rows))
	}
	var want [numClasses]map[string]int
	for c := range want {
		want[c] = map[string]int{}
	}
	for i, n := range b.nodes {
		if n.Parent != NoParent && (n.Parent < 0 || int(n.Parent) >= i) {
			return fmt.Errorf("bundle %d: node %d has invalid parent %d", b.id, i, n.Parent)
		}
		m := n.Doc.Msg
		if m.Date.Before(b.start) || m.Date.After(b.end) {
			return fmt.Errorf("bundle %d: node %d date %v outside extent [%v, %v]",
				b.id, i, m.Date, b.start, b.end)
		}
		var user [1]string
		for c, ts := range classTerms(n.Doc, &user) {
			for _, t := range ts {
				want[c][t]++
			}
		}
	}
	var err error
	for c := range want {
		b.each(class(c), func(t string, got int) {
			if got != want[c][t] && err == nil {
				err = fmt.Errorf("bundle %d: %s %q count %d, nodes imply %d",
					b.id, classNames[c], t, got, want[c][t])
			}
			delete(want[c], t)
		})
		if len(want[c]) > 0 && err == nil {
			err = fmt.Errorf("bundle %d: %s summary lacks %d terms the nodes carry",
				b.id, classNames[c], len(want[c]))
		}
	}
	return err
}
