package score

import (
	"slices"
	"testing"
	"time"

	"provex/internal/termdict"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

// FuzzDoc: a Doc keeps no indicant strings — it finds its hashtag, URL
// and keyword runs and its re-shared user from the class bits of its
// IDs alone — so for any parsed message the runs, read back through the
// dictionary, must be the parse output in order: Hashtags, URLs,
// tokenizer.Keywords of the text and RTOf, with the author first and
// the Indicants every term but the re-shared user. The seeds hold the
// shapes the runs can be confused on: a re-share with no keywords, URLs
// without tags, and a keyword spelled like a user name.
func FuzzDoc(f *testing.F) {
	f.Add("abcdude", "Classy. RT @AmalieBenjamin: Lester #Yankee http://bit.ly/Uvcpr #redsox")
	f.Add("u", "RT @origin: #a")
	f.Add("u", "RT @origin:")
	f.Add("u", "http://a.io/x www.b.io/y https://c.io/z")
	f.Add("alice", "alice said alice RT @alice: alice")
	f.Add("", "#a#b @c http://d rt @e words words")

	date := time.Date(2009, 9, 26, 0, 23, 58, 0, time.UTC)
	f.Fuzz(func(t *testing.T, user, text string) {
		m := tweet.Parse(1, user, date, text)
		d := NewDoc(m)
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
		if got, want := terms(d.Keywords()), orEmpty(tokenizer.Keywords(text)); !slices.Equal(got, want) {
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
		if *d.Msg != m.Post {
			t.Fatalf("%q: the Doc's post %+v is not the message's %+v", text, *d.Msg, m.Post)
		}
	})
}
