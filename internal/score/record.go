package score

import (
	"fmt"
	"math"
	"time"
	"unsafe"

	"provex/internal/termdict"
	"provex/internal/tweet"
)

// Msg is the record an engine keeps for one message: what a Doc points
// to. It is one pointer-free allocation, laid out as
//
//	header  id (8 B), unix-nanosecond date (8 B), term count (4 B),
//	        text length (4 B): the Msg struct itself, 24 bytes
//	terms   term count × termdict.ID (4 B each), the Doc's term list
//	text    text length bytes, the message text
//
// The author is not stored apart: it is the first term, a User-class
// ID, and termdict.Term(m.User()) spells it. A record holds no pointer,
// so it is allocated noscan and the collector never walks it; the
// accessors below return views into it (unsafe.Slice, unsafe.String),
// never copies.
//
// A record is immutable once NewDoc, its only builder, has built it:
// nothing writes through a view. That is what lets one record be shared
// — by a bundle's node and the message index, and by the writer and the
// readers its query results are handed to (query.Reader) — without a
// copy or a lock.
//
// This file is the only one that knows the layout, and one of the two
// non-test files of the module that import unsafe (architecture_test.go
// holds the list). The race build (ci.sh runs go test -race) turns on
// checkptr, which checks every conversion here against the allocation
// it points into.
type Msg struct {
	id    tweet.ID
	date  int64
	terms uint32
	text  uint32
}

const (
	headerSize = unsafe.Sizeof(Msg{})
	idSize     = unsafe.Sizeof(termdict.ID(0))
)

// newMsg builds the record of one message: the raw fields and the
// resolved term list, copied into one allocation.
func newMsg(id tweet.ID, date int64, terms []termdict.ID, text string) *Msg {
	if len(text) > math.MaxUint32 {
		panic(fmt.Sprintf("score: message %d text of %d bytes", id, len(text)))
	}
	n := headerSize + uintptr(len(terms))*idSize + uintptr(len(text))
	words := make([]uint64, (n+7)/8) // 8-aligned and, holding no pointer, noscan
	m := (*Msg)(unsafe.Pointer(unsafe.SliceData(words)))
	*m = Msg{id: id, date: date, terms: uint32(len(terms)), text: uint32(len(text))}
	copy(m.Terms(), terms)
	if len(text) > 0 {
		copy(unsafe.Slice(m.textData(), len(text)), text)
	}
	return m
}

// ID is the message's stream identifier.
func (m *Msg) ID() tweet.ID { return m.id }

// Date is the message's date in unix nanoseconds (tweet.Time renders it).
func (m *Msg) Date() int64 { return m.date }

// Time returns the message's date in UTC. Every date the system renders
// goes through it (or tweet.Time for a bare date), so a message reads
// the same on a live node, after recovery and on a follower.
func (m *Msg) Time() time.Time { return tweet.Time(m.date) }

// Terms is the message's term list: the author, its hashtags, URLs and
// keywords, then — for a re-share only — the re-shared user (Doc reads
// the runs). It is never empty: every record holds its author. It is a
// view into the record; callers must not write to it. Its capacity is
// its length.
func (m *Msg) Terms() []termdict.ID {
	return unsafe.Slice((*termdict.ID)(unsafe.Add(unsafe.Pointer(m), headerSize)), m.terms)
}

// User is the author's ID: the first term.
func (m *Msg) User() termdict.ID { return m.Terms()[0] }

// Text is the message text, a view into the record.
func (m *Msg) Text() string {
	if m.text == 0 {
		return ""
	}
	return unsafe.String(m.textData(), m.text)
}

// textData points at the text bytes; only valid when the text is not
// empty (an empty text may start at the allocation's end).
func (m *Msg) textData() *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(m), headerSize+uintptr(m.terms)*idSize))
}

// AppendRaw appends the stored form of the message (tweet.AppendRaw):
// id, date, author and text, the author spelled by the dictionary.
func (m *Msg) AppendRaw(buf []byte) []byte {
	return tweet.AppendRaw(buf, m.id, m.date, termdict.Term(m.User()), m.Text())
}

// String renders the message in the compact "user date: text" form used
// in examples, trails and test failure output.
func (m *Msg) String() string {
	return fmt.Sprintf("%s %s: %s", termdict.Term(m.User()), m.Time().Format("2006-01-02 15:04:05"), m.Text())
}
