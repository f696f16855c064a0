package eval

import (
	"math"
	"testing"
	"testing/quick"

	"provex/internal/score"
	"provex/internal/tweet"
)

func setOf(edges ...[2]int) *EdgeSet {
	s := NewEdgeSet()
	for _, e := range edges {
		s.Observe(tweet.ID(e[0]), tweet.ID(e[1]), score.ConnText)
	}
	return s
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet()
	if s.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Observe(1, 2, score.ConnText)
	s.Observe(1, 2, score.ConnText) // duplicate
	s.Observe(3, 4, score.ConnRT)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.edges[Edge{1, 2}]; !ok {
		t.Error("edge 1->2 missing")
	}
	if _, ok := s.edges[Edge{2, 1}]; ok {
		t.Error("edge 2->1 present (edges are directed)")
	}
}

func TestIntersectCount(t *testing.T) {
	a := setOf([2]int{1, 2}, [2]int{3, 4}, [2]int{5, 6})
	b := setOf([2]int{3, 4}, [2]int{5, 6}, [2]int{7, 8}, [2]int{9, 10})
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if got := b.IntersectCount(a); got != 2 {
		t.Errorf("IntersectCount not symmetric: %d", got)
	}
	if got := a.IntersectCount(NewEdgeSet()); got != 0 {
		t.Errorf("intersection with empty = %d", got)
	}
}

func TestCompare(t *testing.T) {
	truth := setOf([2]int{1, 2}, [2]int{3, 4}, [2]int{5, 6}, [2]int{7, 8})
	method := setOf([2]int{1, 2}, [2]int{3, 4}, [2]int{9, 10})
	m := Compare(method, truth)
	if math.Abs(m.Accuracy-2.0/3.0) > 1e-12 {
		t.Errorf("Accuracy = %v, want 2/3", m.Accuracy)
	}
	if math.Abs(m.Return-0.5) > 1e-12 {
		t.Errorf("Return = %v, want 0.5", m.Return)
	}
	if m.Matched != 2 || m.Found != 3 || m.Truth != 4 {
		t.Errorf("counts = %+v", m)
	}
}

func TestCompareEmptySets(t *testing.T) {
	m := Compare(NewEdgeSet(), NewEdgeSet())
	if m.Accuracy != 1 || m.Return != 1 {
		t.Errorf("empty/empty = %+v, want accuracy=return=1", m)
	}
	m = Compare(NewEdgeSet(), setOf([2]int{1, 2}))
	if m.Accuracy != 1 || m.Return != 0 {
		t.Errorf("empty method = %+v", m)
	}
	m = Compare(setOf([2]int{1, 2}), NewEdgeSet())
	if m.Accuracy != 0 || m.Return != 1 {
		t.Errorf("empty truth = %+v", m)
	}
}

func TestMetricsString(t *testing.T) {
	s := Compare(setOf([2]int{1, 2}), setOf([2]int{1, 2})).String()
	if s == "" {
		t.Error("empty String")
	}
}

// Property: accuracy and return are always within [0,1], and a method
// equal to the truth scores 1/1.
func TestCompareBoundsProperty(t *testing.T) {
	f := func(truthPairs, extraPairs []uint16) bool {
		truth := NewEdgeSet()
		for i, p := range truthPairs {
			truth.Observe(tweet.ID(p), tweet.ID(uint32(p)+uint32(i)+100000), score.ConnText)
		}
		method := NewEdgeSet()
		for e := range truth.edges {
			method.Observe(e.Parent, e.Child, score.ConnText)
		}
		m := Compare(method, truth)
		if m.Accuracy != 1 || m.Return != 1 {
			return false
		}
		for i, p := range extraPairs {
			method.Observe(tweet.ID(uint32(p)+200000), tweet.ID(uint32(i)+300000), score.ConnText)
		}
		m = Compare(method, truth)
		return m.Accuracy >= 0 && m.Accuracy <= 1 && m.Return >= 0 && m.Return <= 1 &&
			m.Return == 1 // superset still returns all truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: |Ei ∩ E0| ≤ min(|Ei|, |E0|).
func TestIntersectBoundProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		sa, sb := NewEdgeSet(), NewEdgeSet()
		for _, p := range a {
			sa.Observe(tweet.ID(p%50), tweet.ID(p%50+1000), score.ConnText)
		}
		for _, p := range b {
			sb.Observe(tweet.ID(p%50), tweet.ID(p%50+1000), score.ConnText)
		}
		n := sa.IntersectCount(sb)
		min := sa.Len()
		if sb.Len() < min {
			min = sb.Len()
		}
		return n <= min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
