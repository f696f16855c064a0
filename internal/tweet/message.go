// Package tweet defines the micro-blog message model used throughout
// provex and a parser that extracts the annotated indicants the paper's
// provenance model is built on: hashtags, URLs and the re-share (RT)
// relation.
//
// Definition 1 of the paper represents each message as the multi-field
// tuple [date, user, msg, urls, hashtags, rt]; Message mirrors that tuple
// and adds a stable identifier so connections between messages can be
// recorded as (parent ID, child ID) edges.
package tweet

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// Message is one micro-blog post: Definition 1's multi-field tuple.
//
// The annotated indicants (URLs, Hashtags, RT) are extracted by Parse;
// code receiving a Message may rely on them being normalised: hashtags
// lower-cased without '#', URLs lower-cased with scheme stripped, the
// re-shared user lower-cased without '@'. Mentions other than the RT
// marker's are no indicant of the paper's and are not kept: the struct
// is 128 bytes, and an engine holds one per message.
//
// A Message is immutable once Parse (or the generator) has returned it:
// nothing downstream assigns to a field or to an element of its slices.
// That is what lets one *Message be shared — by several engines fed the
// same stream, by a bundle's nodes and the message index, and by the
// writer and the readers its query results are handed to (query.Reader)
// — without a copy or a lock.
type Message struct {
	ID   ID
	Date time.Time
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

// String renders the message in the compact "user date: text" form used
// in examples and test failure output.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s: %s", m.User, m.Date.Format("2006-01-02 15:04:05"), m.Text)
}

// Validate checks structural invariants a well-formed message must hold.
// It is used by codecs and the generator's self-checks rather than on the
// hot ingest path.
func (m *Message) Validate() error {
	switch {
	case m.User == "":
		return errors.New("tweet: empty user")
	case m.Date.IsZero():
		return errors.New("tweet: zero date")
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

// AppendRaw appends the stored form of m to buf: the raw fields only —
// id, unix-nano date, user, text. Indicants are never stored; DecodeRaw
// re-extracts them through Parse, so the parser stays the single source
// of truth for every on-disk codec (WAL records, encoded bundles), the
// same contract as the JSONL codec.
func AppendRaw(buf []byte, m *Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.ID))
	buf = binary.AppendVarint(buf, m.Date.UnixNano())
	buf = recfile.AppendStr(buf, m.User)
	return recfile.AppendStr(buf, m.Text)
}

// DecodeRaw reads what AppendRaw wrote and parses it back into a full
// message (date in UTC). It returns nil once the cursor has failed.
func DecodeRaw(c *recfile.Cursor) *Message {
	id, nanos, user, text := ID(c.Uvarint()), c.Varint(), c.Str(), c.Str()
	if c.Err() != nil {
		return nil
	}
	return Parse(id, user, time.Unix(0, nanos).UTC(), text)
}
