package tokenizer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		text string
		want []string
	}{
		{"Lester down #redsox", []string{"lester", "down", "redsox"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"photos http://bit.ly/Uvcpr today", []string{"photos", "today"}},
		{"skip www.site.com/page too", []string{"skip", "too"}},
		{"@User mentioned #Tag", []string{"user", "mentioned", "tag"}},
		{"don't stop", []string{"don't", "stop"}},
		{"", nil},
		{"...!!!", nil},
		{"a1b2 3c4", []string{"a1b2", "3c4"}},
	}
	for _, tc := range tests {
		if got := Tokenize(tc.text); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestStem(t *testing.T) {
	tests := []struct{ in, want string }{
		{"yankees", "yankee"},
		{"running", "runn"},
		{"watching", "watch"},
		{"stories", "story"},
		{"walked", "walk"},
		{"games", "game"},
		{"boss", "boss"},
		{"win", "win"},
		{"ing", "ing"},
		{"classes", "classe"},
	}
	for _, tc := range tests {
		if got := Stem(tc.in); got != tc.want {
			t.Errorf("Stem(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestKeywords(t *testing.T) {
	kw := Keywords("Can't believe those #redsox. Argh! The game was unbelievable http://bit.ly/x")
	want := []string{"believe", "redsox", "game", "unbelievable"}
	if !reflect.DeepEqual(kw, want) {
		t.Errorf("Keywords = %v, want %v", kw, want)
	}
}

func TestKeywordsFiltersNoise(t *testing.T) {
	for _, text := range []string{"ugh #a", "lol omg wow", "RT to me", "12345 99"} {
		if kw := Keywords(text); len(kw) != 0 {
			t.Errorf("Keywords(%q) = %v, want empty", text, kw)
		}
	}
}

func TestKeywordsDedupAfterStem(t *testing.T) {
	kw := Keywords("yankees yankee game games")
	want := []string{"yankee", "game"}
	if !reflect.DeepEqual(kw, want) {
		t.Errorf("Keywords = %v, want %v", kw, want)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "rt", "lol", "don't"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"redsox", "tsunami", "lester"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestTopTerms(t *testing.T) {
	counts := map[string]int{"redsox": 9, "yankee": 9, "game": 3, "win": 5}
	got := TopTerms(counts, 3)
	want := []string{"redsox", "yankee", "win"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopTerms = %v, want %v", got, want)
	}
	if got := TopTerms(counts, 10); len(got) != 4 {
		t.Errorf("TopTerms over-ask returned %d terms, want 4", len(got))
	}
	if got := TopTerms(nil, 5); len(got) != 0 {
		t.Errorf("TopTerms(nil) = %v, want empty", got)
	}
}

// Property: tokens are always lower-case, non-empty, and contain no
// whitespace or URL remnants.
func TestTokenizeProperty(t *testing.T) {
	f := func(text string) bool {
		for _, tok := range Tokenize(text) {
			if tok == "" || tok != strings.ToLower(tok) || strings.ContainsAny(tok, " \t\n/:") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: stemming is a contraction (never lengthens except the
// ies→y rule which keeps length ≤ input) and idempotent enough for
// keyword dedup: Stem(Stem(x)) never panics and stays non-empty for
// non-empty input.
func TestStemProperty(t *testing.T) {
	f := func(tok string) bool {
		s := Stem(tok)
		if len(tok) > 0 && len(s) == 0 {
			return false
		}
		return len(s) <= len(tok)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Keywords output is always deduplicated and stopword-free.
func TestKeywordsProperty(t *testing.T) {
	f := func(text string) bool {
		seen := map[string]bool{}
		for _, k := range Keywords(text) {
			if seen[k] || IsStopword(k) || len(k) < MinTokenLen {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKeywords(b *testing.B) {
	text := "Lester getting an ovation from the Yankee Stadium crowd as he gets to his feet tonight"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Keywords(text)
	}
}

// TestKeywordsExactFit: the engine keeps a message's keyword slice as
// long as it keeps the message, so the slice holds no spare slots — for
// the benchmark corpus, for a text that outgrows the stack scratch, and
// for whatever quick.Check draws — and one allocation makes it.
func TestKeywordsExactFit(t *testing.T) {
	var long strings.Builder
	for i := 0; i < 100; i++ {
		long.WriteString("word")
		long.WriteByte(byte('a' + i%26))
		long.WriteByte(byte('a' + i/26))
		long.WriteByte(' ')
	}
	for _, text := range append([]string{"", "the and of", long.String()}, benchTexts...) {
		if kws := Keywords(text); cap(kws) != len(kws) {
			t.Errorf("Keywords(%q): len %d, cap %d", text, len(kws), cap(kws))
		}
	}
	if n := len(Keywords(long.String())); n != 100 {
		t.Errorf("a text of 100 distinct words gave %d keywords", n)
	}
	f := func(s string) bool { kws := Keywords(s); return cap(kws) == len(kws) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, text := range benchTexts {
		want := 1.0
		if len(Keywords(text)) == 0 { // also interns the text's words for the run below
			want = 0
		}
		if got := testing.AllocsPerRun(100, func() { Keywords(text) }); got != want {
			t.Errorf("Keywords(%q) allocates %.0f times, want %.0f", text, got, want)
		}
	}
}
