// Package fixture proves //provlint:ignore directives silence
// lockguard findings — and only on the lines they cover, only for the
// analyzer they name.
package fixture

import "sync"

type gauge struct {
	mu sync.Mutex
	v  int // guarded by mu
}

func (g *gauge) blessedRead() int {
	//provlint:ignore lockguard approximate read for a log line; staleness is acceptable
	return g.v
}

func (g *gauge) trailingStyle() int {
	return g.v //provlint:ignore lockguard monotonic progress gauge, torn reads are fine
}

func (g *gauge) stillFlagged() int {
	return g.v // want `read of g\.v without g\.mu held`
}

func (g *gauge) wrongAnalyzer() int {
	//provlint:ignore wgbalance directive names another analyzer
	return g.v // want `read of g\.v without g\.mu held`
}

func (g *gauge) outOfRange() int {
	// The directive is then reported too: it silences nothing.
	//provlint:ignore lockguard directive two lines up reaches only one line down // want `//provlint:ignore lockguard silences no finding`

	return g.v // want `read of g\.v without g\.mu held`
}
