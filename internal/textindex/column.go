package textindex

import "unsafe"

// column is a slice held in fixed-size pages: growing it copies nothing
// and over-allocates by less than a page, where append's doubling
// copies everything and over-allocates by up to a quarter.
type column[T any] struct {
	pages [][]T
	n     int
}

const (
	colBits = 10
	colPage = 1 << colBits // entries to a page
	colMask = colPage - 1
)

func (c *column[T]) push(v T) { *c.reach(c.n) = v }

// reach returns entry i, growing the column to hold it: entries between
// the old end and i read as zero.
func (c *column[T]) reach(i int) *T {
	for i>>colBits >= len(c.pages) {
		c.pages = append(c.pages, make([]T, colPage))
	}
	c.n = max(c.n, i+1)
	return c.at(i)
}

func (c *column[T]) at(i int) *T { return &c.pages[i>>colBits][i&colMask] }

// bytes is the column's heap footprint.
func (c *column[T]) bytes() int64 {
	var zero T
	return int64(len(c.pages))*colPage*int64(unsafe.Sizeof(zero)) + int64(cap(c.pages))*24
}
