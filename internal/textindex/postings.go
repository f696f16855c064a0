package textindex

import "encoding/binary"

// Postings storage. A term's posting list is an append-only byte code
// in document order, one code per document:
//
//	uvarint(gap<<1 | more)   gap = ordinal − previous ordinal (the first
//	                         posting's gap is its ordinal + 1, so a gap is
//	                         never zero)
//	uvarint(tf − 2)          only when more = 1; tf = 1, the common case
//	                         in 140-character messages, costs nothing
//
// The bytes live in slabs cut from one arena the index owns, in a small
// set of sizes — the allocation policy of Asadi, Lin & Busch's "Dynamic
// Memory Allocation Policies for Postings in Real-Time Twitter Search",
// adapted to a vocabulary where three terms in four never reach sixteen
// bytes of postings. A list starts in the smallest slab. While it is
// small it is one contiguous run: when its slab fills it moves to a slab
// of the next size and the old slab goes on that size's free list for
// the next list growing through it, so a rare term costs a few bytes and
// no links. At the top size it stops moving and becomes a chain: a full
// top slab's last four bytes address the next. A code may straddle two
// slabs of a chain. A list can only be read front to back, which is all
// BM25 does.
const (
	pageBits = 14
	pageSize = 1 << pageBits // slabs are cut from pages of this size
	pageMask = pageSize - 1
	linkSize = 4 // a top-size slab ends with the address of the next
)

// slabSizes is the schedule a growing list moves through: steps of a
// third to a half, so a list's slab is on average about a sixth empty.
var slabSizes = [...]uint16{4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}

const topClass = uint8(len(slabSizes) - 1)

// room is how many code bytes a slab of the class holds.
func room(class uint8) uint16 {
	if class == topClass {
		return slabSizes[class] - linkSize
	}
	return slabSizes[class]
}

// arena hands out slabs by bumping a cursor through fixed-size pages,
// or from the free list of the size asked for. It holds no pointers
// besides the page table. An address is page<<pageBits | offset.
type arena struct {
	pages     [][]byte
	unused    uint32           // bytes never handed out at the end of the last page
	freed     [topClass]uint32 // per class, address + 1 of the first free slab; a free slab's first four bytes hold the next such value
	cutBytes  int64            // cut from pages as slabs, free ones included
	codeBytes int64            // of those, bytes holding posting codes
}

// alloc returns a slab of the class.
func (a *arena) alloc(class uint8) uint32 {
	if class < topClass && a.freed[class] != 0 {
		addr := a.freed[class] - 1
		a.freed[class] = binary.LittleEndian.Uint32(a.at(addr, linkSize))
		return addr
	}
	size := uint32(slabSizes[class])
	if a.unused < size {
		// A slab never spans pages; the tail this page cannot fit is
		// left unused.
		if len(a.pages) == 1<<(32-pageBits) {
			panic("textindex: postings arena address space exhausted")
		}
		a.pages = append(a.pages, make([]byte, pageSize))
		a.unused = pageSize
	}
	addr := uint32(len(a.pages))<<pageBits - a.unused
	a.unused -= size
	a.cutBytes += int64(size)
	return addr
}

// release puts a slab no list uses any more on its class's free list.
func (a *arena) release(addr uint32, class uint8) {
	binary.LittleEndian.PutUint32(a.at(addr, linkSize), a.freed[class])
	a.freed[class] = addr + 1
}

// at returns the n bytes at addr.
func (a *arena) at(addr, n uint32) []byte {
	off := addr & pageMask
	return a.pages[addr>>pageBits][off : off+n]
}

// bytes is the arena's heap footprint: every page in full, and the page
// table.
func (a *arena) bytes() int64 {
	return int64(len(a.pages))*pageSize + int64(cap(a.pages))*24
}

// list is one term's posting list: where it starts, where the next byte
// goes, and what the gap and idf arithmetic need without reading it.
type list struct {
	head  uint32 // address of the first slab; meaningful once df > 0
	tail  uint32 // address of the slab being written: head, until the list is a chain
	last  uint32 // newest posting's ordinal + 1
	df    uint32 // postings in the list, tombstoned documents included
	n     uint16 // code bytes in the tail slab
	class uint8  // size class of the tail slab
}

// add appends the posting (ord, tf) to l. ord must be above every
// ordinal already in the list and tf at least 1.
func (a *arena) add(l *list, ord, tf uint32) {
	if l.df == 0 {
		l.head = a.alloc(0)
		l.tail = l.head
	}
	v := uint64(ord+1-l.last) << 1
	if tf > 1 {
		a.putUvarint(l, v|1)
		a.putUvarint(l, uint64(tf-2))
	} else {
		a.putUvarint(l, v)
	}
	l.last = ord + 1
	l.df++
}

func (a *arena) putUvarint(l *list, v uint64) {
	for v >= 0x80 {
		a.put(l, byte(v)|0x80)
		v >>= 7
	}
	a.put(l, byte(v))
}

func (a *arena) put(l *list, b byte) {
	if l.n == room(l.class) {
		a.grow(l)
	}
	a.pages[l.tail>>pageBits][l.tail&pageMask+uint32(l.n)] = b
	l.n++
	a.codeBytes++
}

// grow makes room in l, whose tail slab is full: below the top size the
// list moves to a slab of the next size, at it the chain gains a slab.
func (a *arena) grow(l *list) {
	if l.class < topClass {
		to := a.alloc(l.class + 1)
		copy(a.at(to, uint32(l.n)), a.at(l.tail, uint32(l.n)))
		a.release(l.tail, l.class)
		l.head, l.tail, l.class = to, to, l.class+1
		return
	}
	to := a.alloc(topClass)
	binary.LittleEndian.PutUint32(a.at(l.tail+uint32(l.n), linkSize), to)
	l.tail, l.n = to, 0
}

// cursor reads a list front to back. After next reports true, ord and
// tf are the posting's.
type cursor struct {
	a    *arena
	slab []byte // code bytes of the slab being read
	pos  int    // next byte of slab
	left uint32 // postings not read yet
	last uint32 // ord + 1
	ord  uint32
	tf   uint32
}

// cursor opens l for reading; it stops after the postings l holds now.
func (a *arena) cursor(l *list) cursor {
	c := cursor{a: a, left: l.df}
	if l.df > 0 {
		// Every slab of a chain is of the top class, the tail's.
		c.slab = a.at(l.head, uint32(room(l.class)))
	}
	return c
}

func (c *cursor) next() bool {
	if c.left == 0 {
		return false
	}
	c.left--
	v := c.uvarint()
	c.last += uint32(v >> 1)
	c.ord, c.tf = c.last-1, 1
	if v&1 != 0 {
		c.tf = uint32(c.uvarint()) + 2
	}
	return true
}

func (c *cursor) uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := c.byte()
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

func (c *cursor) byte() byte {
	if c.pos == len(c.slab) {
		// Only a chain has postings past the end of a slab: the link
		// sits right behind the slab's code bytes.
		link := c.slab[:len(c.slab)+linkSize][len(c.slab):]
		c.slab = c.a.at(binary.LittleEndian.Uint32(link), uint32(room(topClass)))
		c.pos = 0
	}
	b := c.slab[c.pos]
	c.pos++
	return b
}
