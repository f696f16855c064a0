package tweet

import (
	"slices"
	"strings"
	"time"
	"unicode"
)

// Parse builds a Message from raw text, extracting every annotated
// indicant the paper's Table I shows: hashtags ("#redsox"), URLs
// ("http://bit.ly/Uvcpr"), mentions ("@AmalieBenjamin") and the RT
// re-share marker ("comment RT @user: original text").
//
// Extraction is deterministic and normalising:
//
//   - hashtags are lower-cased, '#' stripped, deduplicated, order kept;
//   - URLs are lower-cased, scheme ("http://", "https://") stripped,
//     trailing punctuation trimmed, deduplicated;
//   - mentions are lower-cased, '@' stripped, deduplicated;
//   - the FIRST "RT @user" marker determines RTOf; text before it is the
//     re-sharer's comment. Nested re-shares ("WHEW!! RT @MLB: RT
//     @IanMBrowne ...") attribute the message to the outermost source,
//     matching how the paper treats chains of re-shares as one hop to the
//     immediately re-shared user.
func Parse(id ID, user string, date time.Time, text string) *Message {
	m := &Message{ID: id, User: user, Date: date, Text: text}
	extractEntities(m)
	return m
}

// extractEntities scans m.Text once and fills URLs, Hashtags, Mentions,
// RTOf and RTComment.
func extractEntities(m *Message) {
	text := m.Text
	// A message carries one to three entities of a kind: deduplicating
	// by linear scan beats allocating a map per kind.
	add := func(dst *[]string, v string) {
		if v != "" && !slices.Contains(*dst, v) {
			*dst = append(*dst, v)
		}
	}

	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '#':
			tag, next := scanTag(text, i+1)
			add(&m.Hashtags, strings.ToLower(tag))
			i = next
		case c == '@':
			men, next := scanTag(text, i+1)
			add(&m.Mentions, strings.ToLower(men))
			i = next
		case hasURLPrefix(text[i:]):
			u, next := scanURL(text, i)
			add(&m.URLs, NormalizeURL(u))
			i = next
		case c == 'R' || c == 'r':
			if m.RTOf == "" && isRTMarker(text, i) {
				user, _ := rtUser(text, i)
				if user != "" {
					m.RTOf = strings.ToLower(user)
					m.RTComment = strings.TrimSpace(strings.TrimRight(text[:i], " :;-,"))
				}
			}
			i++
		default:
			i++
		}
	}
}

// scanTag consumes a hashtag or mention body starting at position start
// (the byte after '#' or '@') and returns the token plus the index of the
// first unconsumed byte. Tokens are letters, digits and underscores.
func scanTag(s string, start int) (string, int) {
	i := start
	for i < len(s) && isTagByte(s[i]) {
		i++
	}
	return s[start:i], i
}

func isTagByte(c byte) bool {
	return c == '_' ||
		('a' <= c && c <= 'z') ||
		('A' <= c && c <= 'Z') ||
		('0' <= c && c <= '9')
}

func hasURLPrefix(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") ||
		strings.HasPrefix(s, "www.")
}

// scanURL consumes a URL starting at position start and returns it raw
// (normalisation happens in NormalizeURL) plus the next index.
func scanURL(s string, start int) (string, int) {
	i := start
	for i < len(s) && !isURLStop(rune(s[i])) {
		i++
	}
	return s[start:i], i
}

func isURLStop(r rune) bool {
	return unicode.IsSpace(r) || r == '"' || r == '\'' || r == '<' || r == '>' || r == ')'
}

// NormalizeURL canonicalises a URL indicant: lower-case, scheme stripped,
// trailing punctuation that sentence context attaches (".", ",", "!", …)
// trimmed. Two messages sharing a link then compare equal on the
// normalised form, which is what the URL connection type of Table II
// intersects.
func NormalizeURL(u string) string {
	u = strings.ToLower(strings.TrimSpace(u))
	u = strings.TrimPrefix(u, "http://")
	u = strings.TrimPrefix(u, "https://")
	u = strings.TrimRight(u, ".,;:!?")
	u = strings.TrimSuffix(u, "/")
	return u
}

// isRTMarker reports whether text[i:] begins a re-share marker: the
// literal "RT" (any case) followed by whitespace and '@', at a word
// boundary.
func isRTMarker(s string, i int) bool {
	if i > 0 && isTagByte(s[i-1]) {
		return false
	}
	if i+2 > len(s) {
		return false
	}
	if !(s[i] == 'R' || s[i] == 'r') || !(s[i+1] == 'T' || s[i+1] == 't') {
		return false
	}
	j := i + 2
	if j >= len(s) || s[j] != ' ' {
		return false
	}
	for j < len(s) && s[j] == ' ' {
		j++
	}
	return j < len(s) && s[j] == '@'
}

// rtUser extracts the user named by the RT marker at position i and the
// index just past the user name.
func rtUser(s string, i int) (string, int) {
	j := i + 2
	for j < len(s) && s[j] == ' ' {
		j++
	}
	if j >= len(s) || s[j] != '@' {
		return "", i
	}
	return scanTag(s, j+1)
}
