package termdict

import (
	"reflect"
	"sync/atomic"
)

const (
	pageBits = 10
	pageSize = 1 << pageBits // entries to a page
)

// Column is a table over a dense index — an ID's Index within its class,
// or an ordinal its caller assigns — in fixed pages of 1024 entries
// behind an atomically published page directory. Growing copies no entry
// and over-allocates by less than a page, and a page never moves, so a
// reader needs no lock. The zero Column is empty.
//
// A column has one writer at a time; Reach alone grows it, and At, Len
// and Bytes are safe beside it. A reader must learn of index i only after
// the write to entry i (an ID is handed out after its term is stored).
type Column[T any] struct {
	dir atomic.Pointer[[]*[pageSize]T] // replaced, never changed, when a page is added
	n   atomic.Int64                   // entries: one past the highest index reached
}

// Reach returns entry i, growing the column to hold it: entries between
// the old end and i read as zero.
func (c *Column[T]) Reach(i int) *T {
	dir := c.pages()
	if i>>pageBits >= len(dir) {
		grown := dir // appending writes only past the published length
		for i>>pageBits >= len(grown) {
			grown = append(grown, new([pageSize]T))
		}
		c.dir.Store(&grown)
		dir = grown
	}
	if int64(i) >= c.n.Load() {
		c.n.Store(int64(i) + 1)
	}
	return &dir[i>>pageBits][i&(pageSize-1)]
}

// At returns entry i, nil past the end.
func (c *Column[T]) At(i int) *T {
	if uint64(i) >= uint64(c.n.Load()) {
		return nil
	}
	return &(*c.dir.Load())[i>>pageBits][i&(pageSize-1)]
}

// Len returns the number of entries.
func (c *Column[T]) Len() int { return int(c.n.Load()) }

// Bytes is the column's heap footprint: its pages and its directory.
func (c *Column[T]) Bytes() int64 {
	dir := c.pages()
	return int64(len(dir))*pageSize*int64(reflect.TypeFor[T]().Size()) + int64(cap(dir))*8
}

func (c *Column[T]) pages() []*[pageSize]T {
	if dir := c.dir.Load(); dir != nil {
		return *dir
	}
	return nil
}
