// Package fsst is a static symbol-table codec for short strings after
// FSST (Boncz, Neumann & Leis, "FSST: Fast Random Access String
// Compression", VLDB 2020). A table holds at most 255 symbols of one to
// eight bytes; a coded string is one byte per symbol, and a byte no
// symbol covers is written as the escape code followed by the byte
// itself. Every string is coded and decoded on its own, with no context
// from its neighbours, which is what lets a message record hold its text
// coded and hand it out whole.
//
// A table is trained once from a sample and never changes; Train is a
// function of the sample alone (candidates are ranked by gain, ties by
// the symbols themselves, with no map order in between), so one sample
// always yields one table.
package fsst

import (
	"cmp"
	"encoding/binary"
	"slices"
)

const (
	// escape is the code that says the next byte is literal.
	escape = 255

	maxSymbols = 255 // codes 0–254
	maxLen     = 8   // a symbol fits one little-endian word
	rounds     = 5   // FSST's training rounds
)

// Table is a trained symbol table. It holds no pointer, so it is safe to
// share once built: nothing writes to it after Train returns.
type Table struct {
	// By code, the escape's entry unused, so that a byte indexes them
	// with no bounds check.
	word [256]uint64 // symbol bytes as a little-endian word, zero-padded
	size [256]uint8  // 0 for an unused code
	// The lookup, FSST's: each index holds 1 + a code, 0 for none. one
	// is by the symbol's byte, pairs by a hash of a two-byte symbol's
	// bytes, longer by a hash of a longer symbol's first three bytes. A
	// slot holds one symbol — build drops a symbol whose slot is taken —
	// so a match probes one slot per index and compares one word.
	one    [256]uint8
	pairs  [slots]uint8
	longer [slots]uint8
}

// slots is the size of the two hashed indexes.
const slots = 1 << 12

// hash2 and hash3 hash a word's first two and three bytes (Fibonacci
// hashing) to a slot.
func hash2(w uint64) int { return int(uint32(uint16(w)) * 0x9e3779b1 >> 20) }
func hash3(w uint64) int { return int((uint32(w) & 0xffffff) * 0x9e3779b1 >> 20) }

// mask keeps the low n bytes of a word (all eight: the shift by 64
// yields 0).
func mask(n uint8) uint64 { return 1<<(8*uint64(n)) - 1 }

// AppendEncode appends the coded form of src to dst: at each position
// the longest symbol that matches, or the escape code and the byte. A
// text's first three bytes name the one longer symbol it can start
// with, its first two the one two-byte symbol. Each position loads the
// eight bytes from it as one word, the last ones from a zero-padded
// copy of the text's end.
func (t *Table) AppendEncode(dst []byte, src string) []byte {
	var end [2 * maxLen]byte
	whole := max(len(src)-maxLen+1, 0) // the positions with eight bytes ahead
	copy(end[:], src[whole:])
	for i := 0; i < len(src); {
		var w uint64
		if i < whole {
			s := src[i : i+maxLen]
			w = uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		} else {
			w = binary.LittleEndian.Uint64(end[i-whole:])
		}
		avail := len(src) - i
		if c := t.longer[hash3(w)]; c != 0 {
			if l := t.size[c-1]; int(l) <= avail && w&mask(l) == t.word[c-1] {
				dst = append(dst, c-1)
				i += int(l)
				continue
			}
		}
		if c := t.pairs[hash2(w)]; c != 0 && avail >= 2 && uint16(w) == uint16(t.word[c-1]) {
			dst = append(dst, c-1)
			i += 2
			continue
		}
		if c := t.one[uint8(w)]; c != 0 {
			dst = append(dst, c-1)
			i++
			continue
		}
		dst = append(dst, escape, src[i])
		i++
	}
	return dst
}

// AppendDecode appends the string src codes to dst. src must be what
// AppendEncode wrote with this table; a trailing escape with no byte
// after it is dropped. While dst has eight bytes of room it writes each
// symbol as a whole word and advances by its length.
func (t *Table) AppendDecode(dst, src []byte) []byte {
	i, n := 0, len(dst)
	for room := dst[:cap(dst)]; i < len(src) && len(room)-n >= maxLen; i++ {
		c := src[i]
		if c == escape {
			if i++; i < len(src) {
				room[n] = src[i]
				n++
			}
			continue
		}
		binary.LittleEndian.PutUint64(room[n:], t.word[c])
		n += int(t.size[c])
	}
	dst = dst[:n]
	for ; i < len(src); i++ {
		c := src[i]
		if c == escape {
			if i++; i < len(src) {
				dst = append(dst, src[i])
			}
			continue
		}
		var sym [maxLen]byte
		binary.LittleEndian.PutUint64(sym[:], t.word[c])
		dst = append(dst, sym[:t.size[c]]...)
	}
	return dst
}

// DecodedLen is the length of the string src codes, without decoding
// it; it counts as AppendDecode writes.
func (t *Table) DecodedLen(src []byte) int {
	n := 0
	for i := 0; i < len(src); i++ {
		if src[i] == escape {
			if i++; i < len(src) {
				n++
			}
			continue
		}
		n += int(t.size[src[i]])
	}
	return n
}

// symbol is a training candidate: its bytes, zero-padded, and length.
type symbol struct {
	word uint64
	len  uint8
}

// concat is a followed by b, cut to eight bytes.
func concat(a, b symbol) symbol {
	n := min(a.len+b.len, maxLen)
	return symbol{word: (a.word | b.word<<(8*uint64(a.len))) & mask(n), len: n}
}

// build makes the table of the first 255 of cands, best first, that
// find a free slot: code i is the i-th taken. A longer or two-byte
// symbol whose slot an earlier one holds is dropped, as in FSST.
func build(cands []symbol) (*Table, []symbol) {
	t := &Table{}
	var syms []symbol
	for _, s := range cands {
		if len(syms) == maxSymbols {
			break
		}
		var slot *uint8
		switch s.len {
		case 1:
			slot = &t.one[uint8(s.word)]
		case 2:
			slot = &t.pairs[hash2(s.word)]
		default:
			slot = &t.longer[hash3(s.word)]
		}
		if *slot != 0 {
			continue
		}
		*slot = uint8(len(syms)) + 1
		t.word[len(syms)] = s.word
		t.size[len(syms)] = s.len
		syms = append(syms, s)
	}
	return t, syms
}

// Train builds the table that codes sample best by FSST's method: five
// rounds, each coding a growing share of the sample with the table so
// far, counting how often each symbol and each pair of adjacent symbols
// occurs (a byte no symbol covers counts as a symbol of its own, and so
// does the first byte of each longer symbol), and keeping the 255
// candidates — those symbols and the pairs' concatenations — of highest
// gain, occurrences times length, that find a slot. No symbol spans two
// texts of the sample. An empty sample yields an empty table, which
// codes every byte as an escape.
func Train(sample []string) *Table {
	// A position codes as a symbol (0–254) or, when none matches, as its
	// byte (256 + b): 512 states, and a count per state and per pair.
	const states = 512
	count1 := make([]uint32, states)
	count2 := make([]uint32, states*states)
	var pairs []int32 // the pairs counted this round, each once
	t, _ := build(nil)
	var syms []symbol
	var cands []candidate
	var coded []byte
	of := func(s int) symbol {
		if s < 256 {
			return syms[s]
		}
		return symbol{word: uint64(s - 256), len: 1}
	}
	for round := 0; round < rounds; round++ {
		// FSST's schedule: the rounds count a growing share of the sample,
		// 8, 38, 68, 98 and 128 of 128 parts; the last counts all of it.
		part := sample[:(len(sample)*min(8+30*round, 128)+127)/128]
		clear(count1)
		for _, p := range pairs {
			count2[p] = 0
		}
		pairs = pairs[:0]
		for _, text := range part {
			coded = t.AppendEncode(coded[:0], text)
			prev := -1
			for i := 0; i < len(coded); i++ {
				s := int(coded[i])
				if s == escape {
					i++
					s = 256 + int(coded[i])
				} else if t.size[s] > 1 {
					count1[256+int(uint8(t.word[s]))]++
				}
				count1[s]++
				if prev >= 0 {
					p := int32(prev*states + s)
					if count2[p] == 0 {
						pairs = append(pairs, p)
					}
					count2[p]++
				}
				prev = s
			}
		}
		cands = cands[:0]
		for s, n := range count1 {
			if n > 0 {
				sym := of(s)
				cands = append(cands, candidate{sym, uint64(n) * uint64(sym.len)})
			}
		}
		for _, p := range pairs {
			if a := of(int(p) / states); a.len < maxLen {
				sym := concat(a, of(int(p)%states))
				cands = append(cands, candidate{sym, uint64(count2[p]) * uint64(sym.len)})
			}
		}
		t, syms = build(best(cands))
	}
	return t
}

// candidate is a symbol and its gain.
type candidate struct {
	symbol
	gain uint64
}

// best returns the candidates that can make the table, best first: a
// symbol counted several times (as itself and as pairs'
// concatenations) sums its gains, and ties go to the lower word, then
// the shorter symbol, so the order is a function of the counts alone.
// Build drops the candidates whose slot a better one took, so best
// keeps those of the top 2 × 255 gains.
func best(cands []candidate) []symbol {
	// Merge repeats through an open-addressed table of index + 1 into
	// merged, kept under half full.
	bits := 1
	for 1<<bits < 2*len(cands) {
		bits++
	}
	slots := make([]int32, 1<<bits)
	merged := cands[:0]
	for _, c := range cands {
		h := (c.word ^ uint64(c.len)<<59) * 0x9e3779b97f4a7c15 >> (64 - bits)
		for ; ; h = (h + 1) & (1<<bits - 1) {
			if i := slots[h]; i == 0 {
				merged = append(merged, c)
				slots[h] = int32(len(merged))
				break
			} else if merged[i-1].symbol == c.symbol {
				merged[i-1].gain += c.gain
				break
			}
		}
	}
	if keep := 2 * maxSymbols; len(merged) > keep {
		gains := make([]uint64, len(merged))
		for i, c := range merged {
			gains[i] = c.gain
		}
		slices.Sort(gains)
		least := gains[len(gains)-keep]
		kept := merged[:0]
		for _, c := range merged {
			if c.gain >= least {
				kept = append(kept, c)
			}
		}
		merged = kept
	}
	slices.SortFunc(merged, func(x, y candidate) int {
		if x.gain != y.gain {
			return cmp.Compare(y.gain, x.gain)
		}
		return x.compare(y.symbol)
	})
	syms := make([]symbol, len(merged))
	for i, c := range merged {
		syms[i] = c.symbol
	}
	return syms
}

// compare orders symbols by word, then length.
func (s symbol) compare(o symbol) int {
	if s.word != o.word {
		return cmp.Compare(s.word, o.word)
	}
	return cmp.Compare(s.len, o.len)
}
