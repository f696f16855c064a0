package tokenizer

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"provex/internal/termdict"
)

// FuzzTokenizeKeywords throws arbitrary text (including invalid UTF-8
// and pathological URL/sigil soup) at the tokenizer and checks the
// structural invariants every downstream consumer relies on: no
// panics, tokens are lower-cased word runes only, keywords are
// deduplicated, Keywords adds nothing to the term dictionary while
// AppendKeywords resolves the same list to IDs, the single-pass scan is the
// specified pipeline over Tokenize — drop tokens shorter than
// MinTokenLen, stop words and numbers, THEN stem, keep first
// occurrences — and the pipeline is deterministic. The stop-word filter
// runs before the stemmer, so a keyword may itself spell a stop word
// ("dons" → "don"): that is specified behaviour, pinned by the
// benchmark recipes' bundle counts, not a leak.
func FuzzTokenizeKeywords(f *testing.F) {
	f.Add("RT @alice: check https://example.com/x #Breaking news BREAKING")
	f.Add("plain words only")
	f.Add("www.nolink")
	f.Add("")
	f.Add("\x80\xfe\xffinvalid utf8 still TOKENIZES")
	f.Add(strings.Repeat("a", 200) + " " + strings.Repeat("Z", 200))
	f.Add("под_снегом mixed апельсин scripts")
	f.Add("don't can't won't O'Brien")
	f.Add("dons")
	f.Add("buts")
	f.Add("thes")
	f.Add("wills")
	f.Add("(via http://bit.ly/x)samoa quake")
	f.Add(`see "http://bit.ly/y"tsunami now`)

	f.Fuzz(func(t *testing.T, text string) {
		toks := Tokenize(text)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("Tokenize produced an empty token")
			}
			for _, r := range tok {
				if !isWordRune(r) {
					t.Fatalf("token %q contains non-word rune %q", tok, r)
				}
				if 'A' <= r && r <= 'Z' {
					t.Fatalf("token %q is not lower-cased", tok)
				}
			}
		}

		var want []string
		listed := make(map[string]bool)
		for _, tok := range toks {
			if len(tok) < MinTokenLen || stopwords[tok] || isNumeric(tok) {
				continue
			}
			if st := stem(tok); !listed[st] {
				listed[st] = true
				want = append(want, st)
			}
		}
		held := termdict.Len(termdict.Keyword)
		kws := Keywords(text)
		if n := termdict.Len(termdict.Keyword); n != held {
			t.Fatalf("Keywords added %d terms to the dictionary", n-held)
		}
		if !slices.Equal(kws, want) {
			t.Fatalf("Keywords = %q, the pipeline over Tokenize gives %q", kws, want)
		}
		if cap(kws) != len(kws) {
			t.Fatalf("Keywords: %d entries in a slice of %d", len(kws), cap(kws))
		}
		ids := AppendKeywords(nil, text)
		if len(ids) != len(kws) {
			t.Fatalf("AppendKeywords gave %d IDs for %d keywords", len(ids), len(kws))
		}
		for i, k := range kws {
			if len(k) == 0 {
				t.Fatal("Keywords produced an empty keyword")
			}
			if ids[i].Class() != termdict.Keyword || termdict.Term(ids[i]) != k {
				t.Fatalf("keyword %d: AppendKeywords resolved %q to %v (%q)", i, k, ids[i], termdict.Term(ids[i]))
			}
			// Once resolved, Keywords hands out the dictionary's copy.
			if kk := Keywords(text)[i]; unsafe.StringData(kk) != unsafe.StringData(termdict.Term(ids[i])) {
				t.Fatalf("keyword %q is not the dictionary's copy", k)
			}
		}

		// Determinism: a second pass over the same text agrees.
		again := Keywords(text)
		if len(again) != len(kws) {
			t.Fatalf("Keywords not deterministic: %d then %d entries", len(kws), len(again))
		}
		for i := range kws {
			if kws[i] != again[i] {
				t.Fatalf("Keywords not deterministic at %d: %q vs %q", i, kws[i], again[i])
			}
		}
	})
}
