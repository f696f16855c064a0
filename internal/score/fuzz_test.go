package score

import (
	"slices"
	"strings"
	"testing"
	"time"

	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// FuzzDoc: a Doc's record gives the message back — its ID, date and
// text as parsed, its author through the dictionary — and keeps no
// indicant strings — it finds its hashtag, URL
// and keyword runs and its re-shared user from the class bits of its
// IDs alone — so for any parsed message the runs, read back through the
// dictionary, must be the parse output in order: Hashtags, URLs,
// tokenizer.Keywords of the text and RTOf, with the author first and
// the Indicants every term but the re-shared user, none of them twice
// (finish keeps the runs sets for every record). The seeds hold the
// shapes the runs can be confused on: a re-share with no keywords, URLs
// without tags, and a keyword spelled like a user name; and the texts
// the record's layout can be confused on: empty, not UTF-8, and longer
// than 64 KiB. The text reads back through Text, TextLen and AppendRaw
// (the bytes tweet.AppendRaw writes) from a record of each form: raw, as
// before the table is trained, and coded by the trained table.
func FuzzDoc(f *testing.F) {
	date := time.Date(2009, 9, 26, 0, 23, 58, 0, time.UTC).UnixNano()
	f.Add(uint64(1), date, "abcdude", "Classy. RT @AmalieBenjamin: Lester #Yankee http://bit.ly/Uvcpr #redsox")
	f.Add(uint64(2), date, "u", "RT @origin: #a")
	f.Add(uint64(3), date, "u", "RT @origin:")
	f.Add(uint64(4), date, "u", "http://a.io/x www.b.io/y https://c.io/z")
	f.Add(uint64(5), date, "alice", "alice said alice RT @alice: alice")
	f.Add(uint64(6), date, "", "#a#b @c http://d rt @e words words")
	f.Add(uint64(0), int64(0), "u", "")
	f.Add(uint64(1<<63), int64(-1), "\xff\xfe", "caf\xe9 #t\xffag \xc3")
	f.Add(uint64(1<<64-1), int64(1<<63-1), "u", strings.Repeat("#long http://x.io/y word ", 3000))

	f.Fuzz(func(t *testing.T, id uint64, date int64, user, text string) {
		m := tweet.Parse(tweet.ID(id), user, tweet.Time(date), text)
		d := NewDoc(m)
		if d.ID() != m.ID || d.Date() != m.Date || d.Text() != m.Text {
			t.Fatalf("%q: the record reads (%d, %d, %q), the message is (%d, %d, %q)",
				text, d.ID(), d.Date(), d.Text(), m.ID, m.Date, m.Text)
		}
		asRaw, asCoded := recordForms(m)
		checkText(t, "raw", asRaw, m)
		checkText(t, "coded", asCoded, m)
		terms := func(ids []termdict.ID) []string {
			out := []string{}
			for _, id := range ids {
				out = append(out, termdict.Term(id))
			}
			return out
		}
		orEmpty := func(s []string) []string { return append([]string{}, s...) }
		if got := termdict.Term(d.User()); got != user {
			t.Fatalf("%q: User = %q, want %q", text, got, user)
		}
		if got, want := terms(d.Tags()), orEmpty(m.Hashtags); !slices.Equal(got, want) {
			t.Fatalf("%q: Tags = %q, want %q", text, got, want)
		}
		if got, want := terms(d.URLs()), orEmpty(m.URLs); !slices.Equal(got, want) {
			t.Fatalf("%q: URLs = %q, want %q", text, got, want)
		}
		_, _, keywords := d.Runs()
		if got, want := terms(keywords), orEmpty(tokenizer.Keywords(text)); !slices.Equal(got, want) {
			t.Fatalf("%q: Keywords = %q, want %q", text, got, want)
		}
		rt, ok := d.RTUser()
		if ok != m.IsRT() || (ok && termdict.Term(rt) != m.RTOf) {
			t.Fatalf("%q: RTUser = %q, %v, want %q", text, termdict.Term(rt), ok, m.RTOf)
		}
		want := 1 + len(m.Hashtags) + len(m.URLs) + len(tokenizer.Keywords(text))
		if got := len(d.Indicants()); got != want {
			t.Fatalf("%q: %d indicants, want %d", text, got, want)
		}
		for i, id := range d.Indicants() {
			if slices.Contains(d.Indicants()[:i], id) {
				t.Fatalf("%q: indicant %q repeats", text, termdict.Term(id))
			}
		}
	})
}
