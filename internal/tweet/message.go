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
// the raw fields alone, as a Post.
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

// Post is one micro-blog post as the engine keeps it: the raw fields of
// Definition 1's tuple, exactly what AppendRaw stores, with the date in
// unix nanoseconds. Its indicants live in the engine as term-dictionary
// IDs (score.Doc), so a Post holds no copy of them: the struct is 48
// bytes, and an engine holds one per message.
//
// A Post is immutable once prepare has made it: nothing downstream
// assigns to a field. That is what lets one *Post be shared — by a
// bundle's node and the message index, and by the writer and the
// readers its query results are handed to (query.Reader) — without a
// copy or a lock.
type Post struct {
	ID   ID
	Date int64 // unix nanoseconds; Time renders it
	User string
	Text string
}

// Time returns the post's date in UTC. Every date the system renders
// goes through it (or Time for a bare date), so a message reads the
// same on a live node, after recovery and on a follower.
func (p *Post) Time() time.Time { return Time(p.Date) }

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

// Message is the parse output: a Post plus the annotated indicants
// Parse extracted. It lives from Parse to prepare, which resolves the
// indicants and keeps only the Post.
//
// The indicants are normalised: hashtags lower-cased without '#', URLs
// lower-cased with scheme stripped, the re-shared user lower-cased
// without '@'. Mentions other than the RT marker's are no indicant of
// the paper's and are not kept. A Message is immutable once Parse (or
// the generator) has returned it, so several engines may be fed the
// same one.
type Message struct {
	Post

	// Extracted indicants.
	URLs     []string
	Hashtags []string

	// RTOf names the user whose message this one re-shares ("RT @user:"),
	// empty when the message is original.
	RTOf string
}

// IsRT reports whether the message re-shares a previous one.
func (m *Message) IsRT() bool { return m.RTOf != "" }

// String renders the post in the compact "user date: text" form used
// in examples, trails and test failure output.
func (p *Post) String() string {
	return fmt.Sprintf("%s %s: %s", p.User, p.Time().Format("2006-01-02 15:04:05"), p.Text)
}

// Validate checks structural invariants a well-formed message must hold.
// It is used by codecs and the generator's self-checks rather than on the
// hot ingest path.
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

// AppendRaw appends the stored form of p to buf: the raw fields only —
// id, unix-nano date, user, text. Indicants are never stored; DecodeRaw
// re-extracts them through Parse, so the parser stays the single source
// of truth for every on-disk codec (WAL records, encoded bundles), the
// same contract as the JSONL codec.
func AppendRaw(buf []byte, p *Post) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.ID))
	buf = binary.AppendVarint(buf, p.Date)
	buf = recfile.AppendStr(buf, p.User)
	return recfile.AppendStr(buf, p.Text)
}

// DecodeRaw reads what AppendRaw wrote and parses it back into a full
// message. It returns nil once the cursor has failed.
func DecodeRaw(c *recfile.Cursor) *Message {
	id, date, user, text := ID(c.Uvarint()), c.Varint(), c.Str(), c.Str()
	if c.Err() != nil {
		return nil
	}
	m := &Message{Post: Post{ID: id, Date: date, User: user, Text: text}}
	extractEntities(m)
	return m
}
