package score

import (
	"fmt"
	"time"
	"unsafe"

	"provex/internal/fsst"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

// Msg is the record an engine keeps for one message: what a Doc points
// to. It is one pointer-free allocation, laid out as
//
//	header  id (8 B), unix-nanosecond date (8 B), term count (4 B),
//	        stored text length (4 B; its top bit, coded, set when the
//	        text is FSST-coded): the Msg struct itself, 24 bytes
//	terms   term count × termdict.ID (4 B each), the Doc's term list
//	text    stored text length bytes: the message text, FSST-coded by
//	        the process's symbol table (text.go) once that is trained
//	        and the coded form is shorter, else raw
//
// The author is not stored apart: it is the first term, a User-class
// ID, and termdict.Term(m.User()) spells it. A record holds no pointer,
// so it is allocated noscan and the collector never walks it; the
// accessors below return views into it (unsafe.Slice, unsafe.String),
// never copies — but for a coded text, which Text decodes into a fresh
// string and AppendRaw straight into the caller's buffer.
//
// A record is immutable once NewDoc, its only builder, has built it:
// nothing writes through a view. That is what lets one record be shared
// — by a bundle's node and the message index, and by the writer and the
// readers its query results are handed to (query.Reader) — without a
// copy or a lock. The symbol table is immutable too, and published
// before the first coded record is built.
//
// This file is the only one that knows the layout, and the only
// non-test file of the module that imports unsafe (architecture_test.go
// holds the list; the codec, internal/fsst, works on bytes alone). The race build (ci.sh runs go test -race) turns on
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

	coded = 1 << 31 // the bit of Msg.text that marks a coded text
)

// newMsg builds the record of one message: the raw fields and the
// resolved term list, copied into one allocation, and the text coded by
// t when t is not nil and the coded form is shorter (coded in stack
// scratch, for up to 256 coded bytes). NewDoc passes the process's
// table, textCode.tableFor(text); t must be nil or that table, which
// decodes the record.
func newMsg(id tweet.ID, date int64, terms []termdict.ID, text string, t *fsst.Table) *Msg {
	if len(text) >= coded {
		panic(fmt.Sprintf("score: message %d text of %d bytes", id, len(text)))
	}
	var scratch [256]byte
	var enc []byte
	if t != nil {
		enc = t.AppendEncode(scratch[:0], text)
	}
	isCoded := t != nil && len(enc) < len(text)
	stored := uint32(len(text))
	if isCoded {
		stored = uint32(len(enc))
	}
	n := headerSize + uintptr(len(terms))*idSize + uintptr(stored)
	words := make([]uint64, (n+7)/8) // 8-aligned and, holding no pointer, noscan
	m := (*Msg)(unsafe.Pointer(unsafe.SliceData(words)))
	*m = Msg{id: id, date: date, terms: uint32(len(terms)), text: stored}
	copy(m.Terms(), terms)
	switch {
	case isCoded:
		m.text |= coded
		copy(m.storedText(), enc)
	case stored > 0:
		copy(m.storedText(), text)
	}
	textCode.raw.Add(int64(len(text)))
	textCode.stored.Add(int64(stored))
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

// Text is the message text: a view into the record, or, for a coded
// text, a fresh string decoded from it.
func (m *Msg) Text() string {
	if m.text&coded != 0 {
		b := m.appendText(make([]byte, 0, m.TextLen()))
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	if m.text == 0 {
		return ""
	}
	return unsafe.String(m.textData(), m.text)
}

// TextLen is the length of the message text, read without building it.
func (m *Msg) TextLen() int {
	if m.text&coded != 0 {
		return textCode.table.Load().DecodedLen(m.storedText())
	}
	return int(m.text)
}

// appendText appends the message text to buf, decoding a coded one.
func (m *Msg) appendText(buf []byte) []byte {
	if m.text&coded != 0 {
		return textCode.table.Load().AppendDecode(buf, m.storedText())
	}
	return append(buf, m.Text()...)
}

// storedText is the text as the record holds it, coded or raw.
func (m *Msg) storedText() []byte {
	n := m.text &^ coded
	if n == 0 {
		return nil
	}
	return unsafe.Slice(m.textData(), n)
}

// textData points at the text bytes; only valid when the text is not
// empty (an empty text may start at the allocation's end).
func (m *Msg) textData() *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(m), headerSize+uintptr(m.terms)*idSize))
}

// AppendRaw appends the stored form of the message (tweet.AppendRaw):
// id, date, author and text, the author spelled by the dictionary, a
// coded text decoded straight into buf.
func (m *Msg) AppendRaw(buf []byte) []byte {
	user := termdict.Term(m.User())
	if m.text&coded == 0 {
		return tweet.AppendRaw(buf, m.id, m.date, user, m.Text())
	}
	return m.appendText(tweet.AppendRawHead(buf, m.id, m.date, user, m.TextLen()))
}

// String renders the message in the compact "user date: text" form used
// in examples, trails and test failure output.
func (m *Msg) String() string {
	return fmt.Sprintf("%s %s: %s", termdict.Term(m.User()), m.Time().Format("2006-01-02 15:04:05"), m.Text())
}
