package tokenizer

import (
	"slices"
	"strings"
	"testing"
)

// FuzzTokenizeKeywords throws arbitrary text (including invalid UTF-8
// and pathological URL/sigil soup) at the tokenizer and checks the
// structural invariants every downstream consumer relies on: no
// panics, tokens are lower-cased word runes only, keywords are
// deduplicated and interned, the single-pass Keywords scan is the
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
			if len(tok) < MinTokenLen || IsStopword(tok) || isNumeric(tok) {
				continue
			}
			if st := Stem(tok); !listed[st] {
				listed[st] = true
				want = append(want, st)
			}
		}
		kws := Keywords(text)
		if !slices.Equal(kws, want) {
			t.Fatalf("Keywords = %q, the pipeline over Tokenize gives %q", kws, want)
		}
		if cap(kws) != len(kws) {
			t.Fatalf("Keywords: %d entries in a slice of %d", len(kws), cap(kws))
		}
		for _, k := range kws {
			if len(k) == 0 {
				t.Fatal("Keywords produced an empty keyword")
			}
			// Interning must be stable: the same spelling resolves to
			// the same canonical string.
			if Intern(k) != k {
				t.Fatalf("keyword %q is not the canonical interned copy", k)
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
