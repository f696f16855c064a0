// Package tweet defines the micro-blog message model used throughout
// provex and a parser that extracts the annotated indicants the paper's
// provenance model is built on: hashtags, URLs and the re-share (RT)
// relation.
//
// Definition 1 of the paper represents each message as the multi-field
// tuple [date, user, msg, urls, hashtags, rt]; Message mirrors that tuple
// and adds a stable identifier so connections between messages can be
// recorded as (parent ID, child ID) edges. Only Algorithm 1 needs the
// whole tuple: once prepare has resolved the indicants, an engine keeps
// the raw fields and the indicant IDs in one record (score.Msg).
package tweet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"provex/internal/recfile"
)

// ID is a stable message identifier, assigned by the producer of a stream
// (the crawler in the paper, the generator or loader here). IDs increase
// with publication order within a single stream but carry no other meaning.
type ID uint64

// MaxTextLen is the classic micro-blog message length limit. The parser
// does not reject longer texts (real crawls contain them after entity
// expansion) but the generator honours it.
const MaxTextLen = 140

// Time returns a unix-nanosecond date in UTC.
func Time(date int64) time.Time { return time.Unix(0, date).UTC() }

// Sub returns the duration a − b between two unix-nanosecond dates,
// saturated at the bounds of time.Duration the way time.Time.Sub is:
// the extreme years a stream may carry (1678 and 2262) lie further
// apart than an int64 of nanoseconds reaches.
func Sub(a, b int64) time.Duration {
	d := a - b
	if (d < 0) != (a < b) { // the difference wrapped
		if a < b {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Message is the parse output: the raw fields of Definition 1's tuple
// — the date in unix nanoseconds — plus the annotated indicants Parse
// extracted. It lives from Parse to prepare, which resolves the
// indicants and copies what the engine keeps into the message's record.
//
// The indicants are normalised: hashtags lower-cased without '#', URLs
// lower-cased with scheme stripped, the re-shared user lower-cased
// without '@'. Mentions other than the RT marker's are no indicant of
// the paper's and are not kept. A Message is immutable once Parse (or
// the generator) has returned it, so several engines may be fed the
// same one.
type Message struct {
	ID   ID
	Date int64 // unix nanoseconds; Time renders it
	User string
	Text string

	// Extracted indicants.
	URLs     []string
	Hashtags []string

	// RTOf names the user whose message this one re-shares ("RT @user:"),
	// empty when the message is original.
	RTOf string
}

// IsRT reports whether the message re-shares a previous one.
func (m *Message) IsRT() bool { return m.RTOf != "" }

// Time returns the message's date in UTC.
func (m *Message) Time() time.Time { return Time(m.Date) }

// Validate checks structural invariants a well-formed message must hold.
// It is an oracle for tests: the parser's tests and fuzzer and the
// generator's tests hold their output to it; no ingest path calls it.
func (m *Message) Validate() error {
	switch {
	case m.User == "":
		return errors.New("tweet: empty user")
	case strings.TrimSpace(m.Text) == "":
		return errors.New("tweet: empty text")
	}
	for _, h := range m.Hashtags {
		if h == "" || strings.ContainsAny(h, "# \t\n") {
			return fmt.Errorf("tweet: malformed hashtag %q", h)
		}
		if h != strings.ToLower(h) {
			return fmt.Errorf("tweet: hashtag %q not normalised", h)
		}
	}
	for _, u := range m.URLs {
		if u == "" || strings.ContainsAny(u, " \t\n") {
			return fmt.Errorf("tweet: malformed url %q", u)
		}
	}
	return nil
}

// AppendRaw appends the stored form of a message to buf: the raw
// fields only — id, unix-nano date, user, text. Indicants are never
// stored, keywords included: DecodeRaw re-extracts the entities through
// Parse, and the record builder (score.NewDoc) the keywords through the
// tokenizer, so parser and tokenizer stay the single source of truth
// for every on-disk codec (WAL records, encoded bundles and so
// checkpoints), the same contract as the JSONL codec.
func AppendRaw(buf []byte, id ID, date int64, user, text string) []byte {
	return append(AppendRawHead(buf, id, date, user, len(text)), text...)
}

// AppendRaw appends m's stored form, as the function AppendRaw does:
// the WAL writes its record of the parsed input through it.
func (m *Message) AppendRaw(buf []byte) []byte {
	return AppendRaw(buf, m.ID, m.Date, m.User, m.Text)
}

// AppendRawHead appends what AppendRaw writes ahead of the text's
// bytes, for a text of textLen bytes the caller appends itself (a
// record decoding its stored text into buf).
func AppendRawHead(buf []byte, id ID, date int64, user string, textLen int) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendVarint(buf, date)
	buf = recfile.AppendStr(buf, user)
	return binary.AppendUvarint(buf, uint64(textLen))
}

// DecodeRaw reads what AppendRaw wrote and parses it back into a full
// message. It returns nil once the cursor has failed.
func DecodeRaw(c *recfile.Cursor) *Message {
	id, date, user, text := ID(c.Uvarint()), c.Varint(), c.Str(), c.Str()
	if c.Err() != nil {
		return nil
	}
	m := &Message{ID: id, Date: date, User: user, Text: text}
	extractEntities(m)
	return m
}
