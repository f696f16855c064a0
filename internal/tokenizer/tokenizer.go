// Package tokenizer provides the text-processing substrate shared by the
// full-text index and the provenance summary index: tokenisation of
// micro-blog text, stop-word filtering, light suffix stemming and keyword
// selection.
//
// The paper's "text" connection type (Table II) intersects the word sets
// of two messages, and its summary index carries a keywords indicant
// class next to hashtags and URLs; both consume the output of this
// package.
package tokenizer

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MinTokenLen is the shortest token kept by Keywords; one- and two-letter
// fragments ("rt", "ny", emoticon residue) carry almost no topical signal
// in 140-character messages and would bloat posting lists.
const MinTokenLen = 3

// Tokenize splits text into lower-cased word tokens. Hashtag and mention
// sigils are dropped (the indicant extractors in package tweet own those
// classes); URLs are skipped entirely so link fragments do not pollute
// the vocabulary; everything else splits on non-alphanumeric runes.
func Tokenize(text string) []string {
	var out []string
	i := 0
	for i < len(text) {
		if hasURLPrefix(text[i:]) {
			i = skipURL(text, i)
			continue
		}
		c := rune(text[i])
		if !isWordRune(c) {
			i++
			continue
		}
		start := i
		for i < len(text) && isWordRune(rune(text[i])) {
			i++
		}
		out = append(out, strings.ToLower(text[start:i]))
	}
	return out
}

func isWordRune(r rune) bool {
	return r == '_' || r == '\'' ||
		('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9')
}

func hasURLPrefix(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") ||
		strings.HasPrefix(s, "www.")
}

// skipURL returns the end of the URL that starts at i: the first
// whitespace rune after it, or len(text). URLs are skipped wholesale so
// link fragments do not pollute the vocabulary. It steps by rune, so a
// multi-byte character whose tail byte reads as NBSP (A0) or NEL (85)
// does not end the URL and leak the rest of it into the keywords.
func skipURL(text string, i int) int {
	for i < len(text) {
		r, size := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(text[i:])
		}
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return i
}

// stopwords is the filter list applied by Keywords. It mixes standard
// English function words with micro-blog chatter ("lol", "omg", "rt")
// that the paper's Figure 1 shows dominating noisy messages.
var stopwords = func() map[string]bool {
	words := []string{
		"a", "about", "after", "again", "all", "also", "am", "an", "and",
		"any", "are", "as", "at", "be", "because", "been", "before",
		"being", "but", "by", "can", "cannot", "could", "did", "do",
		"does", "doing", "don", "down", "during", "each", "few", "for",
		"from", "further", "get", "got", "had", "has", "have", "having",
		"he", "her", "here", "hers", "him", "his", "how", "i", "if", "in",
		"into", "is", "it", "its", "just", "like", "me", "more", "most",
		"my", "no", "nor", "not", "now", "of", "off", "on", "once",
		"only", "or", "other", "our", "out", "over", "own", "same",
		"she", "so", "some", "such", "than", "that", "the", "their",
		"them", "then", "there", "these", "they", "this", "those",
		"through", "to", "too", "under", "until", "up", "very", "was",
		"we", "were", "what", "when", "where", "which", "while", "who",
		"whom", "why", "will", "with", "would", "you", "your",
		// contractions produced by our apostrophe-keeping tokenizer
		"i'm", "it's", "don't", "can't", "won't", "didn't", "that's",
		"you're", "he's", "she's", "isn't", "aren't", "wasn't",
		// micro-blog chatter
		"rt", "via", "lol", "omg", "wow", "yeah", "hey", "ugh", "argh",
		"sigh", "haha", "hahaha", "u", "ur", "im", "dont", "cant",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}()

// IsStopword reports whether the (already lower-cased) token is filtered
// from keyword sets.
func IsStopword(tok string) bool { return stopwords[tok] }

// Stem applies a light, deterministic suffix stemmer — a few high-value
// rules rather than full Porter — so "yankees"/"yankee" and
// "wins"/"winning"/"win" collide in the keyword space the way the
// paper's bundle summaries (Figure 2) show merged word forms.
func Stem(tok string) string {
	n := len(tok)
	switch {
	case n > 5 && strings.HasSuffix(tok, "ing"):
		return tok[:n-3]
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y"
	case n > 4 && strings.HasSuffix(tok, "ed") && tok[n-3] != 'e':
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "es") && !strings.HasSuffix(tok, "ses"):
		return tok[:n-1]
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss"):
		return tok[:n-1]
	}
	return tok
}

// Keywords returns the deduplicated, stemmed, stopword-filtered keyword
// set of text, in first-occurrence order. This is the "text" indicant of
// Table II and the keywords class of the summary index.
//
// Keywords sits on the ingest hot path (once per message, inside the
// prepare stage), so it scans text in a single pass — no intermediate
// token slice, no seen-map — and returns interned strings: the only
// steady-state allocation is the result slice itself, and since the
// engine keeps that slice for as long as it keeps the message, it is
// cut to fit: the keywords are collected in a stack scratch (which a
// 140-character message cannot outgrow) and copied out once. Safe for
// concurrent use.
func Keywords(text string) []string {
	var scratch [36]string // 140 characters hold at most 35 tokens of MinTokenLen
	out := scratch[:0]
	i := 0
	for i < len(text) {
		if hasURLPrefix(text[i:]) {
			i = skipURL(text, i)
			continue
		}
		if !isWordRune(rune(text[i])) {
			i++
			continue
		}
		start := i
		hasUpper := false
		for i < len(text) && isWordRune(rune(text[i])) {
			if 'A' <= text[i] && text[i] <= 'Z' {
				hasUpper = true
			}
			i++
		}
		if i-start < MinTokenLen {
			continue
		}
		tok := text[start:i]
		if hasUpper {
			tok = internLower(tok)
		}
		if IsStopword(tok) || isNumeric(tok) {
			continue
		}
		tok = Intern(Stem(tok))
		// Keyword sets of 140-character messages hold a handful of
		// entries; the linear dedup scan beats allocating a map.
		dup := false
		for _, k := range out {
			if k == tok {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, tok)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return append(make([]string, 0, len(out)), out...)
}

// internLower lower-cases tok (pure ASCII by construction: isWordRune
// admits only [A-Za-z0-9_']) into a stack buffer and resolves it
// through the intern table without allocating on the hit path.
func internLower(tok string) string {
	var buf [64]byte
	if len(tok) > len(buf) {
		return Intern(strings.ToLower(tok))
	}
	b := buf[:len(tok)]
	for j := 0; j < len(tok); j++ {
		c := tok[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[j] = c
	}
	return internBytes(b)
}

func isNumeric(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// TopTerms returns the k highest-count terms of counts, ties broken
// alphabetically for determinism. Bundle summaries use it to render the
// "Summary Words" column of the paper's Figure 2 result list.
func TopTerms(counts map[string]int, k int) []string {
	type tc struct {
		term  string
		count int
	}
	all := make([]tc, 0, len(counts))
	for t, c := range counts {
		all = append(all, tc{t, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].term < all[j].term
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].term
	}
	return out
}
