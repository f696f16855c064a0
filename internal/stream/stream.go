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
	"errors"
	"io"
	"math"

	"provex/internal/tweet"
)

// Source yields messages in date order. Next returns io.EOF after the
// last message; any other error is a stream fault.
type Source interface {
	Next() (*tweet.Message, error)
}

// SliceSource replays an in-memory slice.
type SliceSource struct {
	msgs []*tweet.Message
	pos  int
}

// NewSliceSource wraps msgs; the slice is not copied.
func NewSliceSource(msgs []*tweet.Message) *SliceSource {
	return &SliceSource{msgs: msgs}
}

// Next implements Source.
func (s *SliceSource) Next() (*tweet.Message, error) {
	if s.pos >= len(s.msgs) {
		return nil, io.EOF
	}
	m := s.msgs[s.pos]
	s.pos++
	return m, nil
}

// Reset rewinds the source to the first message.
func (s *SliceSource) Reset() { s.pos = 0 }

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

// Drain pulls every message from src into a slice. It is intended for
// tests and small datasets; multi-million message runs should stream.
func Drain(src Source) ([]*tweet.Message, error) {
	var out []*tweet.Message
	for {
		m, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
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
