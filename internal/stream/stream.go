// Package stream provides the message-stream plumbing between dataset
// producers (the generator, dataset files) and consumers (the provenance
// engine, the text index): a Source iterator abstraction, the JSONL
// codec, and composition helpers.
//
// The paper's simulation "imports the micro-blog messages into the
// system in a temporally ordered sequence; the latest message's date is
// simulated as the system's current date" — Clock implements exactly
// that convention.
package stream

import (
	"io"
	"math"

	"provex/internal/tweet"
)

// Source yields messages in date order. Next returns io.EOF after the
// last message; any other error is a stream fault.
type Source interface {
	Next() (*tweet.Message, error)
}

// FuncSource adapts a generator function to Source. The function must
// keep returning messages; use Limit to bound it.
type FuncSource func() *tweet.Message

// Next implements Source.
func (f FuncSource) Next() (*tweet.Message, error) { return f(), nil }

// Limit returns a Source producing at most n messages from src.
func Limit(src Source, n int) Source {
	return &limitSource{src: src, remaining: n}
}

type limitSource struct {
	src       Source
	remaining int
}

func (l *limitSource) Next() (*tweet.Message, error) {
	if l.remaining <= 0 {
		return nil, io.EOF
	}
	l.remaining--
	return l.src.Next()
}

// Tee returns a Source that forwards src while calling observe on every
// message that passes through (metrics, ground-truth capture).
func Tee(src Source, observe func(*tweet.Message)) Source {
	return &teeSource{src: src, observe: observe}
}

type teeSource struct {
	src     Source
	observe func(*tweet.Message)
}

func (t *teeSource) Next() (*tweet.Message, error) {
	m, err := t.src.Next()
	if err == nil {
		t.observe(m)
	}
	return m, err
}

// NoDate is what a Clock that has seen no date reads: before every
// unix-nanosecond date.
const NoDate int64 = math.MinInt64

// Clock tracks simulated time per the paper's replay convention: the
// newest message date observed so far is "now", in unix nanoseconds
// like tweet.Message.Date. The zero Clock reads NoDate until fed.
type Clock struct {
	now  int64
	seen bool
}

// Now returns the simulated current time.
func (c *Clock) Now() int64 {
	if !c.seen {
		return NoDate
	}
	return c.now
}

// AdvanceTo moves the clock forward to date; older dates are ignored.
// The engine feeds it every message's date, and checkpoint restore
// uses it to resume simulated time.
func (c *Clock) AdvanceTo(date int64) {
	if !c.seen || date > c.now {
		c.now, c.seen = date, true
	}
}
