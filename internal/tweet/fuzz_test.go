package tweet

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"provex/internal/recfile"
)

// FuzzParse throws arbitrary users, dates and texts (invalid UTF-8,
// sigil and URL soup, multi-byte characters inside links) at Parse and
// checks what the rest of the system relies on: Parse never panics; a
// message with a user and a non-blank text passes Validate; a valid
// UTF-8 text yields valid UTF-8 indicants holding no replacement
// character the text does not; every URL indicant is NormalizeURL of a
// whitespace-free piece of the text, cut at character boundaries; and
// the stored form (AppendRaw, DecodeRaw) gives the same message back.
func FuzzParse(f *testing.F) {
	date := time.Date(2009, 9, 26, 0, 23, 58, 0, time.UTC).UnixNano()
	f.Add("abcdude", date, "Classy. RT @AmalieBenjamin: Lester #Yankee http://bit.ly/Uvcpr #redsox")
	f.Add("u", date, "http://example.com/voilà vs http://example.com/voilàpourquoi")
	f.Add("u", date, "http://example.com/Åland/guide www.ru.example.org/Россия/news")
	f.Add("u", date, "https://a.com/x.\u00a0https://b.com/y\u0085(www.c.io/z)")
	f.Add("u", int64(0), "\x80\xfe\xff http://\xc3 #\xd0 @\xa0")
	f.Add("", date, "rt @ RT  @x: RT @y #a#b @c@d")

	f.Fuzz(func(t *testing.T, user string, nanos int64, text string) {
		d := time.Unix(0, nanos).UTC()
		m := Parse(7, user, d, text)

		if user != "" && strings.TrimSpace(text) != "" {
			if err := m.Validate(); err != nil {
				t.Fatalf("Parse(%q) fails Validate: %v", text, err)
			}
		}

		if utf8.ValidString(text) {
			for _, s := range slices.Concat([]string{m.RTOf}, m.URLs, m.Hashtags) {
				if !utf8.ValidString(s) {
					t.Fatalf("Parse(%q): indicant %q is not valid UTF-8", text, s)
				}
				if strings.ContainsRune(s, utf8.RuneError) && !strings.ContainsRune(text, utf8.RuneError) {
					t.Fatalf("Parse(%q): indicant %q holds a replacement character the text does not", text, s)
				}
			}
		}

		for _, u := range m.URLs {
			if !urlFromText(text, u) {
				t.Fatalf("Parse(%q): URL %q is not NormalizeURL of a whitespace-free piece of the text", text, u)
			}
		}

		got := DecodeRaw(recfile.NewCursor(AppendRaw(nil, &m.Post)))
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("DecodeRaw(AppendRaw(m)) differs:\n  in:  %+v\n  out: %+v", m, got)
		}
	})
}

// urlFromText reports whether u is NormalizeURL of a piece of text that
// starts with a URL prefix, holds no whitespace and, when the text is
// valid UTF-8, starts and ends on character boundaries.
func urlFromText(text, u string) bool {
	valid := utf8.ValidString(text)
	for start := 0; start < len(text); start++ {
		if !hasURLPrefix(text[start:]) {
			continue
		}
		limit := len(text)
		if i := strings.IndexFunc(text[start:], unicode.IsSpace); i >= 0 {
			limit = start + i
		}
		for end := start + 1; end <= limit; end++ {
			piece := text[start:end]
			if valid && !utf8.ValidString(piece) {
				continue
			}
			if NormalizeURL(piece) == u {
				return true
			}
		}
	}
	return false
}
