// Package termdict is the process-wide term dictionary: every indicant
// a message carries — hashtag, URL, keyword, user — is resolved once,
// when the message is prepared, to a uint32 ID, and every layer past
// that (the Eq. 1–5 scorers, the bundle summaries, the summary index)
// compares IDs instead of strings. Earlybird keeps one term dictionary
// and integer postings the same way (Asadi, Lin & Busch, "Dynamic
// Memory Allocation Policies for Postings in Real-Time Twitter
// Search").
//
// An ID carries its class in its top two bits, so one ID names a
// (class, term) pair: the keyword "redsox" and the hashtag "redsox" are
// two IDs. The dictionary is append-only — an ID, once handed out,
// names its term for the life of the process — and process-wide,
// because core.Prepare has no engine to hang one on and runs on the
// ingest pipeline's log stage, beside the writer and the readers.
//
// IDs are in-memory names only. Two processes (a leader and its
// follower, a run and its recovery) number the same terms differently,
// so no result order, tie-break or on-disk byte may depend on an ID's
// value: what is stored or ranked goes through Term.
//
// Concurrency: Intern and Lookup take a per-class lock (read-locked on
// a hit); Term takes none — terms live in a Column, the paged table
// every ID-keyed table of the process is built on, and an ID reaches a
// reader only after the write of its term.
package termdict

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"provex/internal/metrics"
)

// Class is an indicant family: the top two bits of an ID.
type Class uint8

// Indicant classes. A re-shared user ("RT @user") is a User term, the
// same ID as that user's own posts carry.
const (
	Tag Class = iota
	URL
	Keyword
	User
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Tag:
		return "hashtag"
	case URL:
		return "url"
	case Keyword:
		return "keyword"
	case User:
		return "user"
	default:
		return fmt.Sprintf("class%d", uint8(c))
	}
}

// ID names one (class, term) pair for the life of the process.
type ID uint32

const (
	classShift = 30
	indexMask  = 1<<classShift - 1

	// None is no term: what Lookup answers for a term the dictionary
	// does not hold. It is never handed out — a class holds at most
	// 2^30 − 1 terms — so it is in no summary and has no postings.
	None ID = 1<<32 - 1
)

// Class returns the class the ID belongs to.
func (id ID) Class() Class { return Class(id >> classShift) }

// Index returns the ID's position within its class: the class's terms
// are numbered densely from 0 in the order they were added, so a slice
// indexed by it is a table keyed by the class's terms. None's index is
// past every term's.
func (id ID) Index() uint32 { return uint32(id) & indexMask }

// table is one class's terms: an open-addressed hash of index + 1 (0 is
// an empty slot), probed linearly and kept under three quarters full,
// over the terms themselves in a column.
type table struct {
	mu    sync.RWMutex
	slots []uint32       // guarded by mu
	bytes int64          // the terms' own bytes; guarded by mu
	terms Column[string] // by index; written under mu, read by Term without it
}

// dict is the dictionary; the process has one, global.
type dict struct {
	seed   maphash.Seed
	tables [NumClasses]table
}

func newDict() *dict { return &dict{seed: maphash.MakeSeed()} }

var global = newDict()

// Intern returns term's ID in class c, adding the term on first sight.
// The dictionary keeps its own copy of the term, so term may be a slice
// of a larger string (a message text) that must not stay reachable.
func Intern(c Class, term string) ID { return global.intern(c, term) }

// InternBytes is Intern for a term assembled in a scratch buffer: only
// first sight converts it to a string.
func InternBytes(c Class, term []byte) ID { return global.internBytes(c, term) }

// Lookup returns term's ID in class c, None when the dictionary does
// not hold it. It never adds a term: queries resolve through it, so
// what users search for cannot grow the dictionary.
func Lookup(c Class, term string) ID { return global.lookup(c, term) }

// LookupBytes is Lookup for a term in a scratch buffer.
func LookupBytes(c Class, term []byte) ID { return global.lookupBytes(c, term) }

// Term returns the term an ID names. The ID must have been handed out
// by Intern or Lookup.
func Term(id ID) string { return global.term(id) }

// Len returns the number of terms of class c.
func Len(c Class) int { return global.len(c) }

// Bytes returns the heap the dictionary holds: hash slots, term pages
// and the terms' bytes.
func Bytes() int64 { return global.size() }

// RegisterMetrics exposes the dictionary's size on reg. The dictionary
// is per process, so a process registers it once, with its other
// process-wide families (server.New does).
func RegisterMetrics(reg *metrics.Registry) {
	for c := Class(0); c < NumClasses; c++ {
		reg.RegisterGaugeFunc("provex_termdict_terms",
			"Terms the process-wide term dictionary holds, by indicant class; append-only, never reclaimed.",
			func() float64 { return float64(Len(c)) }, "class", c.String())
	}
	reg.RegisterGaugeFunc("provex_termdict_bytes",
		"Heap the term dictionary holds: hash slots, term pages and the terms' bytes.",
		func() float64 { return float64(Bytes()) })
}

func (d *dict) intern(c Class, term string) ID {
	h := maphash.String(d.seed, term)
	if id, ok := find(d, c, term, h); ok {
		return id
	}
	return d.insert(c, strings.Clone(term), h)
}

//provex:hotpath once per indicant of every prepared message; only a term's first sight converts
func (d *dict) internBytes(c Class, term []byte) ID {
	h := maphash.Bytes(d.seed, term)
	if id, ok := find(d, c, term, h); ok {
		return id
	}
	//provlint:ignore hotpathalloc miss path: the one copy of a term the dictionary keeps
	return d.insert(c, string(term), h)
}

func (d *dict) lookup(c Class, term string) ID {
	id, _ := find(d, c, term, maphash.String(d.seed, term))
	return id
}

func (d *dict) lookupBytes(c Class, term []byte) ID {
	id, _ := find(d, c, term, maphash.Bytes(d.seed, term))
	return id
}

// find is the read-locked probe of every lookup, None when absent.
//
//provex:hotpath the hit path of Intern, InternBytes, Lookup and LookupBytes
func find[T string | []byte](d *dict, c Class, term T, h uint64) (ID, bool) {
	t := &d.tables[c]
	t.mu.RLock()
	i1, _ := findLocked(t, term, h)
	t.mu.RUnlock()
	if i1 == 0 {
		return None, false
	}
	return makeID(c, i1-1), true
}

// insert adds term (which the dictionary now owns) unless a concurrent
// insert got there first.
func (d *dict) insert(c Class, term string, h uint64) ID {
	t := &d.tables[c]
	t.mu.Lock()
	defer t.mu.Unlock()
	i1, slot := findLocked(t, term, h)
	if i1 != 0 {
		return makeID(c, i1-1)
	}
	n := t.terms.Len()
	if n >= indexMask {
		panic(fmt.Sprintf("termdict: %s class full at %d terms", c, n))
	}
	if (n+1)*4 > len(t.slots)*3 {
		d.rehashLocked(t)
		_, slot = findLocked(t, term, h)
	}
	*t.terms.Reach(n) = term
	t.bytes += int64(len(term))
	t.slots[slot] = uint32(n + 1)
	return makeID(c, uint32(n))
}

// findLocked returns the term's index + 1, or 0 and the slot it would
// take. The caller holds t.mu.
func findLocked[T string | []byte](t *table, term T, h uint64) (i1 uint32, slot int) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	mask := len(t.slots) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		i1 = t.slots[slot]
		if i1 == 0 || equal(*t.terms.At(int(i1 - 1)), term) {
			return i1, slot
		}
	}
}

// equal reports whether a held term spells term, without converting it.
func equal[T string | []byte](held string, term T) bool {
	if len(held) != len(term) {
		return false
	}
	for i := 0; i < len(held); i++ {
		if held[i] != term[i] {
			return false
		}
	}
	return true
}

// rehashLocked doubles t's slots. The caller holds t.mu for writing.
func (d *dict) rehashLocked(t *table) {
	t.slots = make([]uint32, max(16, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for i := 0; i < t.terms.Len(); i++ {
		slot := int(maphash.String(d.seed, *t.terms.At(i))) & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = uint32(i + 1)
	}
}

func makeID(c Class, index uint32) ID { return ID(c)<<classShift | ID(index) }

//provex:hotpath resolves stored and routed terms (bundle codec, shard routing, message index)
func (d *dict) term(id ID) string { return *d.tables[id.Class()].terms.At(int(id.Index())) }

func (d *dict) len(c Class) int { return d.tables[c].terms.Len() }

// size sums every class's slots, term column and term bytes.
func (d *dict) size() int64 {
	var n int64
	for c := range d.tables {
		t := &d.tables[c]
		t.mu.RLock()
		n += int64(cap(t.slots))*4 + t.terms.Bytes() + t.bytes
		t.mu.RUnlock()
	}
	return n
}
