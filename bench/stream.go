package main

import (
	"bytes"
	"fmt"

	"provex/internal/gen"
	"provex/internal/stream"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// synthStream is one synthesised input: the messages as the generator
// made them (the load generator draws query terms from these) and the
// JSONL bytes the server is fed, with line offsets so a phase can write
// any message range in one call.
type synthStream struct {
	msgs []*tweet.Message
	data []byte
	off  []int // off[i] is where message i starts; off[len(msgs)] == len(data)
}

// synth generates n messages from cfg through the repo's own JSONL
// writer, so the bytes are exactly what provgen would have produced.
func synth(cfg gen.Config, n int) (*synthStream, error) {
	s := &synthStream{msgs: make([]*tweet.Message, 0, n)}
	var buf bytes.Buffer
	src := stream.Tee(stream.Limit(stream.FuncSource(gen.New(cfg).Next), n),
		func(m *tweet.Message) { s.msgs = append(s.msgs, m) })
	if _, err := stream.WriteJSONL(&buf, src); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	s.data = buf.Bytes()
	s.off = make([]int, 1, n+1)
	for pos := 0; pos < len(s.data); {
		nl := bytes.IndexByte(s.data[pos:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("synth: unterminated line at byte %d", pos)
		}
		pos += nl + 1
		s.off = append(s.off, pos)
	}
	if len(s.off) != n+1 {
		return nil, fmt.Errorf("synth: %d lines for %d messages", len(s.off)-1, n)
	}
	return s, nil
}

// lines returns the JSONL bytes of messages [from, to).
func (s *synthStream) lines(from, to int) []byte { return s.data[s.off[from]:s.off[to]] }

// queryTerm is what a user who saw m would search for: its first
// hashtag, else its longest keyword; "" when it has neither.
func queryTerm(m *tweet.Message) string {
	if len(m.Hashtags) > 0 {
		return m.Hashtags[0]
	}
	best := ""
	for _, kw := range tokenizer.Keywords(m.Text) {
		if len(kw) > len(best) {
			best = kw
		}
	}
	return best
}
