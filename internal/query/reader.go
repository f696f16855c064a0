package query

import (
	"fmt"
	"strings"
	"time"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/score"
	"provex/internal/trending"
	"provex/internal/tweet"
)

// Reader is the read surface of an indexing node, declared once: it is
// server.Backend and the read half of pipeline.Backend. Processor is
// its one engine-level implementation, over a node's one or N engines;
// pipeline.Service and repl.Replica wrap a Processor.
//
// Everything a Reader returns is the caller's to keep: it may be read
// from any goroutine, for as long as the caller likes, after whatever
// lock the read ran under has been released. Hits, topics, statistics
// and BundleDetail are fresh values copied out by the read that found
// them; the message records they point to are shared with the engine,
// which is safe because a record is immutable once prepared (score.Msg).
// Nothing returned aliases a live bundle, pool or index — code that
// wants the bundle itself asks the engine on the writer's goroutine
// (Processor.Engine().Bundle).
type Reader interface {
	SearchMessages(q string, k int) []MessageHit
	SearchBundles(q string, k int) []BundleHit
	Bundle(id bundle.ID) (BundleDetail, error)
	Trending(k int) []trending.Topic
	Snapshot() core.Stats
}

// BundleNode is one message of a BundleDetail with its provenance edge:
// the index of its parent in Nodes (bundle.NoParent for a root), the
// Eq. 5 score of that edge and its Table II connection type.
type BundleNode struct {
	Msg    score.Doc
	Score  float64
	Parent int32
	Conn   score.ConnectionType
}

// BundleDetail is one bundle as a value — what GET /bundle and Trail
// draw, the paper's Figure 2(b)/Figure 10 — copied out of the pool or
// the disk back-end by the read that resolved it.
type BundleDetail struct {
	ID         bundle.ID
	Closed     bool
	Start, End time.Time    // message-date extent, UTC
	Summary    []string     // the 10 most frequent summary words
	Nodes      []BundleNode // in node-id order
}

// detail copies b out, its edge scores derived under w, the weights
// of the engine that placed it. The caller holds whatever keeps b
// still.
func detail(b *bundle.Bundle, w score.MessageWeights) BundleDetail {
	d := BundleDetail{
		ID:      b.ID(),
		Closed:  b.Closed(),
		Start:   tweet.Time(b.StartDate()),
		End:     tweet.Time(b.LastDate()),
		Summary: b.SummaryWords(10),
		Nodes:   make([]BundleNode, b.Size()),
	}
	for i, n := range b.Nodes() {
		d.Nodes[i] = BundleNode{Msg: n.Doc, Score: b.EdgeScore(w, i), Parent: n.Parent, Conn: n.Conn}
	}
	return d
}

// Trail resolves a bundle through r and renders its provenance forest.
// The rendering runs on the returned value, after r's read is over.
func Trail(r Reader, id bundle.ID) (string, error) {
	d, err := r.Bundle(id)
	if err != nil {
		return "", err
	}
	return d.Render(), nil
}

// Render draws the provenance forest as indented text — the CLI/demo
// analogue of the paper's Figure 10 visualisation.
func (d BundleDetail) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bundle %d: %d messages, %s .. %s, summary=%v\n",
		d.ID, len(d.Nodes),
		d.Start.Format("2006-01-02 15:04"), d.End.Format("2006-01-02 15:04"),
		d.Summary[:min(8, len(d.Summary))])

	// Sibling lists in ascending node order, built back to front in one
	// pass: first[p+1] is p's first child and slot 0 (NoParent+1) the
	// first root; next[i] is i's next sibling; -1 ends a list.
	first := make([]int32, len(d.Nodes)+1)
	next := make([]int32, len(d.Nodes))
	for i := range first {
		first[i] = -1
	}
	for i := len(d.Nodes) - 1; i >= 0; i-- {
		p := d.Nodes[i].Parent + 1
		next[i], first[p] = first[p], int32(i)
	}
	var rec func(i int32, depth int)
	rec = func(i int32, depth int) {
		for ; i >= 0; i = next[i] {
			n := d.Nodes[i]
			label := ""
			if n.Parent != bundle.NoParent {
				label = fmt.Sprintf(" [%s %.2f]", n.Conn, n.Score)
			}
			fmt.Fprintf(&sb, "%s- %s%s\n", strings.Repeat("  ", depth+1), n.Msg, label)
			rec(first[i+1], depth+1)
		}
	}
	rec(first[0], 0)
	return sb.String()
}
