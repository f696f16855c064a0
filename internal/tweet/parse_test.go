package tweet

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

var testDate = time.Date(2009, 9, 26, 0, 23, 58, 0, time.UTC)

func parseText(t *testing.T, text string) *Message {
	t.Helper()
	m := Parse(1, "tester", testDate, text)
	if err := m.Validate(); err != nil {
		t.Fatalf("Parse(%q) produced invalid message: %v", text, err)
	}
	return m
}

func TestParseHashtags(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"Can't believe those #redsox. Argh!", []string{"redsox"}},
		{"#Redsox - glee ! #Yankees #MLB", []string{"redsox", "yankees", "mlb"}},
		{"#redsox #redsox #REDSOX", []string{"redsox"}},
		{"no tags here", nil},
		{"#tag_with_underscore and #tag2", []string{"tag_with_underscore", "tag2"}},
		{"trailing #", nil},
		{"#a#b", []string{"a", "b"}},
	}
	for _, tc := range tests {
		m := Parse(1, "u", testDate, tc.text)
		if !reflect.DeepEqual(m.Hashtags, tc.want) {
			t.Errorf("Parse(%q).Hashtags = %v, want %v", tc.text, m.Hashtags, tc.want)
		}
	}
}

func TestParseURLs(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"photos http://bit.ly/Uvcpr", []string{"bit.ly/uvcpr"}},
		{"see https://ow.ly/kq3.", []string{"ow.ly/kq3"}},
		{"two http://a.com/x and http://b.com/y", []string{"a.com/x", "b.com/y"}},
		{"dup http://A.com/x http://a.com/x", []string{"a.com/x"}},
		{"bare www.example.com/page works", []string{"www.example.com/page"}},
		{"(http://c.io/z)", []string{"c.io/z"}},
		{"none at all", nil},
	}
	for _, tc := range tests {
		m := Parse(1, "u", testDate, tc.text)
		if !reflect.DeepEqual(m.URLs, tc.want) {
			t.Errorf("Parse(%q).URLs = %v, want %v", tc.text, m.URLs, tc.want)
		}
	}
}

// TestParseURLMultiByte: a URL ends at whitespace, and the tail byte of
// "à" (C3 A0), "Å" (C3 85) or Cyrillic "Р" (D0 A0) is not whitespace,
// although read alone it is NBSP or NEL. Cut there, the two links of
// the second row would be one URL indicant and make a URL connection.
func TestParseURLMultiByte(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"voilà http://example.com/voilà", []string{"example.com/voilà"}},
		{"http://example.com/voilà vs http://example.com/voilàpourquoi", []string{"example.com/voilà", "example.com/voilàpourquoi"}},
		{"guide http://example.com/Åland/guide", []string{"example.com/åland/guide"}},
		{"http://ru.example.org/Россия/news", []string{"ru.example.org/россия/news"}},
	}
	for _, tc := range tests {
		if got := parseText(t, tc.text).URLs; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q).URLs = %q, want %q", tc.text, got, tc.want)
		}
	}
}

// TestParseMentions: a mention is no indicant — it leaves no hashtag,
// URL or re-share behind — and it is skipped whole, so "RT" as a user
// name is no marker while a real "RT @user" after it still is.
func TestParseMentions(t *testing.T) {
	m := parseText(t, "hey @Alice and @bob_2, also @RT @carol")
	if m.IsRT() || len(m.Hashtags) != 0 || len(m.URLs) != 0 {
		t.Errorf("mentions left indicants: %+v", m)
	}
	m = parseText(t, "thanks @RT RT @dave: news")
	if m.RTOf != "dave" {
		t.Errorf("RTOf = %q, want dave", m.RTOf)
	}
}

// TestParseTableIExamples replays the exact messages of the paper's
// Table I and checks the indicants the paper annotates.
func TestParseTableIExamples(t *testing.T) {
	m1 := parseText(t, "WHEW!! RT @MLB: RT @IanMBrowne X-rays on Lester negative. Contusion of the right quad. Day to Day. #redsox")
	if m1.RTOf != "mlb" {
		t.Errorf("nested RT: RTOf = %q, want %q (outermost source)", m1.RTOf, "mlb")
	}
	if !reflect.DeepEqual(m1.Hashtags, []string{"redsox"}) {
		t.Errorf("Hashtags = %v, want [redsox]", m1.Hashtags)
	}

	m2 := parseText(t, "Classy. Way it should be RT @AmalieBenjamin: Lester getting an ovation from the #Yankee Stadium crowd as he gets to his feet. #redsox")
	if m2.RTOf != "amaliebenjamin" {
		t.Errorf("RTOf = %q, want amaliebenjamin", m2.RTOf)
	}
	if !reflect.DeepEqual(m2.Hashtags, []string{"yankee", "redsox"}) {
		t.Errorf("Hashtags = %v, want [yankee redsox]", m2.Hashtags)
	}

	m3 := parseText(t, "Yankee Magic, you can only find it at Yankee Stadium! THE YANKEEEEEEEEESS WIN!!!")
	if m3.IsRT() {
		t.Errorf("original message wrongly detected as RT: %+v", m3)
	}
	if len(m3.Hashtags) != 0 || len(m3.URLs) != 0 {
		t.Errorf("plain message gained indicants: %+v", m3)
	}
}

func TestParseRTEdgeCases(t *testing.T) {
	tests := []struct {
		text   string
		wantRT string
	}{
		{"RT @user: original", "user"},
		{"nice RT @User: original", "user"},
		{"START is a word, not a marker", ""},
		{"ART @user: 'rt' inside word", ""},
		{"rt @lower case marker", "lower"},
		{"RT without at-sign", ""},
		{"RT @", ""},
		{"comment! RT   @spaced: text", "spaced"},
	}
	for _, tc := range tests {
		m := Parse(1, "u", testDate, tc.text)
		if m.RTOf != tc.wantRT {
			t.Errorf("Parse(%q).RTOf = %q, want %q", tc.text, m.RTOf, tc.wantRT)
		}
	}
}

func TestNormalizeURL(t *testing.T) {
	tests := []struct{ in, want string }{
		{"http://Bit.ly/34i", "bit.ly/34i"},
		{"https://ow.ly/kq3", "ow.ly/kq3"},
		{"http://example.com/", "example.com"},
		{"http://example.com/a.", "example.com/a"},
		{"WWW.Site.COM/Page!", "www.site.com/page"},
	}
	for _, tc := range tests {
		if got := NormalizeURL(tc.in); got != tc.want {
			t.Errorf("NormalizeURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Parse(1, "u", testDate, "hello #world")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	bad := []*Message{
		{Post: Post{User: "", Date: testDate.UnixNano(), Text: "x"}},
		{Post: Post{User: "u", Date: testDate.UnixNano(), Text: "   "}},
		{Post: Post{User: "u", Date: testDate.UnixNano(), Text: "x"}, Hashtags: []string{"#h"}},
		{Post: Post{User: "u", Date: testDate.UnixNano(), Text: "x"}, Hashtags: []string{"UPPER"}},
		{Post: Post{User: "u", Date: testDate.UnixNano(), Text: "x"}, URLs: []string{"has space"}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid message %+v passed Validate", i, m)
		}
	}
}

// Property: parsing never panics and always yields normalised indicants,
// for arbitrary input text.
func TestParseNormalisationProperty(t *testing.T) {
	f := func(text string) bool {
		m := Parse(1, "u", testDate, text)
		for _, h := range m.Hashtags {
			if h != strings.ToLower(h) || strings.Contains(h, "#") {
				return false
			}
		}
		for _, u := range m.URLs {
			if u != strings.ToLower(u) || strings.HasPrefix(u, "http") && !strings.HasPrefix(u, "http.") {
				return false
			}
		}
		return m.RTOf == strings.ToLower(m.RTOf) && !strings.Contains(m.RTOf, "@")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: extraction is idempotent — re-parsing the same text yields
// identical indicants.
func TestParseDeterministicProperty(t *testing.T) {
	f := func(text string) bool {
		a := Parse(1, "u", testDate, text)
		b := Parse(1, "u", testDate, text)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: indicant slices never contain duplicates.
func TestParseDedupProperty(t *testing.T) {
	uniq := func(ss []string) bool {
		seen := map[string]bool{}
		for _, s := range ss {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	f := func(text string) bool {
		m := Parse(1, "u", testDate, text)
		return uniq(m.Hashtags) && uniq(m.URLs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	text := "Classy. Way it should be RT @AmalieBenjamin: Lester getting an ovation from the #Yankee Stadium crowd http://bit.ly/Uvcpr #redsox"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(1, "abcdude", testDate, text)
	}
}

// TestParseAllocs pins BenchmarkParse's message — two hashtags, a
// mention, a URL and an RT marker — at the allocations its content
// needs: the Message, the two entity slices (Hashtags grows once) and
// the lower-cased copies. 14 when each entity kind deduplicated through
// a map of its own; 8 while mentions and the RT comment were kept; 6
// while Parse was small enough to inline, which kept the discarded
// Message on this test's stack. Parse runs once per message in the log
// stage.
func TestParseAllocs(t *testing.T) {
	text := "Classy. Way it should be RT @AmalieBenjamin: Lester getting an ovation from the #Yankee Stadium crowd http://bit.ly/Uvcpr #redsox"
	if n := testing.AllocsPerRun(200, func() { Parse(1, "abcdude", testDate, text) }); n > 7 {
		t.Errorf("Parse allocates %.0f times, want at most 7", n)
	}
}

// TestMessageSize: an engine holds one Post per ingested message, so
// the struct is a per-message cost — 48 bytes, its own size class. The
// Message around it is parse output and is dropped after prepare.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Post{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Post{}) = %d, want 48", got)
	}
}
