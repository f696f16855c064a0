package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"provex/internal/tweet"
)

// jsonRecord is the on-disk JSONL shape of one message. Only the raw
// fields are stored; indicants are re-extracted on load so the parser is
// the single source of truth for entity extraction.
type jsonRecord struct {
	ID   uint64 `json:"id"`
	Date string `json:"date"` // RFC3339
	User string `json:"user"`
	Text string `json:"text"`
}

// WriteJSONL writes every message from src to w, one JSON object per
// line, and returns the number written.
func WriteJSONL(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	n := 0
	for {
		m, err := src.Next()
		if err == io.EOF {
			return n, bw.Flush()
		}
		if err != nil {
			return n, err
		}
		rec := jsonRecord{
			ID:   uint64(m.ID),
			Date: m.Date.UTC().Format(time.RFC3339Nano),
			User: m.User,
			Text: m.Text,
		}
		if err := enc.Encode(&rec); err != nil {
			return n, err
		}
		n++
	}
}

// JSONLReader streams messages from a JSONL dataset file. It implements
// Source; malformed lines abort with a positioned error rather than
// being skipped silently.
type JSONLReader struct {
	sc   *bufio.Scanner
	line int
}

// NewJSONLReader reads from r. Lines up to 1 MiB are accepted.
func NewJSONLReader(r io.Reader) *JSONLReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &JSONLReader{sc: sc}
}

// Next implements Source.
func (j *JSONLReader) Next() (*tweet.Message, error) {
	for j.sc.Scan() {
		j.line++
		raw := j.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", j.line, err)
		}
		date, err := time.Parse(time.RFC3339Nano, rec.Date)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad date: %w", j.line, err)
		}
		// The WAL and the store keep a date as unix nanoseconds
		// (tweet.AppendRaw), which span the years 1678 to 2262.
		if !time.Unix(0, date.UnixNano()).Equal(date) {
			return nil, fmt.Errorf("stream: line %d: bad date: %s is outside the years 1678 to 2262", j.line, rec.Date)
		}
		m := tweet.Parse(tweet.ID(rec.ID), rec.User, date, rec.Text)
		return m, nil
	}
	if err := j.sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: line %d: %w", j.line+1, err)
	}
	return nil, io.EOF
}
