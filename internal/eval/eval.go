// Package eval implements the paper's provenance-quality evaluation
// (Section VI-B): each method's output is its set of discovered message
// connections; the Full Index method's output E0 is ground truth, and
// an approximation method with output Ei is scored by
//
//	accuracy = |Ei ∩ E0| / |Ei|   (how much of what it found is right)
//	return   = |Ei ∩ E0| / |E0|   (how much of the truth it found)
//
// EdgeSet collects connections via the engine's edge callback; Compare
// scores one set against another, and the figures call it at
// checkpoints along the stream, which is how Figure 8 plots
// accuracy/return against incoming messages.
package eval

import (
	"fmt"

	"provex/internal/score"
	"provex/internal/tweet"
)

// Edge is one provenance connection in (parent, child) form. Child IDs
// are unique per stream (a message has at most one parent, Definition
// 3's max-scored connection), so the pair identifies the edge.
type Edge struct {
	Parent tweet.ID
	Child  tweet.ID
}

// EdgeSet is a set of provenance connections.
type EdgeSet struct {
	edges map[Edge]struct{}
}

// NewEdgeSet returns an empty set.
func NewEdgeSet() *EdgeSet {
	return &EdgeSet{edges: make(map[Edge]struct{})}
}

// Observe is an engine-compatible EdgeFunc that records each discovered
// connection.
func (s *EdgeSet) Observe(parent, child tweet.ID, _ score.ConnectionType) {
	s.edges[Edge{Parent: parent, Child: child}] = struct{}{}
}

// Add inserts an edge directly.
func (s *EdgeSet) Add(parent, child tweet.ID) {
	s.edges[Edge{Parent: parent, Child: child}] = struct{}{}
}

// Len returns the number of edges.
func (s *EdgeSet) Len() int { return len(s.edges) }

// Contains reports membership.
func (s *EdgeSet) Contains(e Edge) bool {
	_, ok := s.edges[e]
	return ok
}

// IntersectCount returns |s ∩ other| without materialising the
// intersection.
func (s *EdgeSet) IntersectCount(other *EdgeSet) int {
	small, big := s, other
	if big.Len() < small.Len() {
		small, big = big, small
	}
	n := 0
	for e := range small.edges {
		if _, ok := big.edges[e]; ok {
			n++
		}
	}
	return n
}

// Metrics is one accuracy/return measurement of a method against the
// ground truth.
type Metrics struct {
	Accuracy float64 // |Ei ∩ E0| / |Ei|; 1 when Ei is empty
	Return   float64 // |Ei ∩ E0| / |E0|; 1 when E0 is empty
	Matched  int     // |Ei ∩ E0| — the matched-pair bars of Figure 8
	Found    int     // |Ei|
	Truth    int     // |E0|
}

// Compare scores method output ei against ground truth e0.
func Compare(ei, e0 *EdgeSet) Metrics {
	m := Metrics{Found: ei.Len(), Truth: e0.Len(), Accuracy: 1, Return: 1}
	m.Matched = ei.IntersectCount(e0)
	if m.Found > 0 {
		m.Accuracy = float64(m.Matched) / float64(m.Found)
	}
	if m.Truth > 0 {
		m.Return = float64(m.Matched) / float64(m.Truth)
	}
	return m
}

// String renders the measurement.
func (m Metrics) String() string {
	return fmt.Sprintf("accuracy=%.3f return=%.3f matched=%d found=%d truth=%d",
		m.Accuracy, m.Return, m.Matched, m.Found, m.Truth)
}
