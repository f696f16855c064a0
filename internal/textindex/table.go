package textindex

import (
	"hash/maphash"
	"unsafe"
)

// column is an append-only slice held in fixed-size pages: growing it
// copies nothing and over-allocates by less than a page, where append's
// doubling copies everything and over-allocates by up to a quarter.
type column[T any] struct {
	pages [][]T
	n     int
}

const (
	colBits = 10
	colPage = 1 << colBits // entries to a page
	colMask = colPage - 1
)

func (c *column[T]) push(v T) {
	if c.n>>colBits == len(c.pages) {
		c.pages = append(c.pages, make([]T, colPage))
	}
	c.pages[c.n>>colBits][c.n&colMask] = v
	c.n++
}

func (c *column[T]) at(i int) *T { return &c.pages[i>>colBits][i&colMask] }

// bytes is the column's heap footprint.
func (c *column[T]) bytes() int64 {
	var zero T
	return int64(len(c.pages))*colPage*int64(unsafe.Sizeof(zero)) + int64(cap(c.pages))*24
}

// termTable maps a term to its posting list. A term's id is its
// position in the two columns; slots is an open-addressed hash table of
// id + 1 (0 marks an empty slot), probed linearly. The term is held
// once, as the 16-byte header of the term dictionary's string — a map[string]…
// would hold it beside each value at 35 to 55 bytes an entry.
type termTable struct {
	seed  maphash.Seed
	slots []uint32
	names column[string]
	lists column[list]
}

// find returns the term's id + 1, or 0 and the slot it would take.
func (t *termTable) find(term string) (id1 uint32, slot int) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	mask := len(t.slots) - 1
	for slot = int(maphash.String(t.seed, term)) & mask; ; slot = (slot + 1) & mask {
		id1 = t.slots[slot]
		if id1 == 0 || *t.names.at(int(id1 - 1)) == term {
			return id1, slot
		}
	}
}

// lookup returns the term's list, nil if the table does not hold it.
func (t *termTable) lookup(term string) *list {
	id1, _ := t.find(term)
	if id1 == 0 {
		return nil
	}
	return t.lists.at(int(id1 - 1))
}

// intern returns the term's list, adding an empty one if it is new.
func (t *termTable) intern(term string) *list {
	id1, slot := t.find(term)
	if id1 == 0 {
		if (t.names.n+1)*4 > len(t.slots)*3 {
			t.rehash()
			_, slot = t.find(term)
		}
		t.names.push(term)
		t.lists.push(list{})
		id1 = uint32(t.names.n)
		t.slots[slot] = id1
	}
	return t.lists.at(int(id1 - 1))
}

// rehash doubles the slot table, keeping it under three quarters full.
func (t *termTable) rehash() {
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
	}
	t.slots = make([]uint32, max(16, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for id := 0; id < t.names.n; id++ {
		slot := int(maphash.String(t.seed, *t.names.at(id))) & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = uint32(id + 1)
	}
}

// bytes is the table's heap footprint, the terms' own bytes apart: they
// are the term dictionary's strings, shared with every other holder.
func (t *termTable) bytes() int64 {
	return int64(cap(t.slots))*4 + t.names.bytes() + t.lists.bytes()
}
