package recfile

import (
	"encoding/binary"
	"fmt"
)

// Cursor decodes the varint-coded payload of a record. It latches the
// first error, so a decoder reads its fields in a straight line and
// checks Err once; after an error every read returns the zero value.
type Cursor struct {
	data []byte
	pos  int
	err  error
}

// NewCursor starts a cursor at the first byte of data.
func NewCursor(data []byte) *Cursor { return &Cursor{data: data} }

// Err is the first decoding error, nil while every read has succeeded.
func (c *Cursor) Err() error { return c.err }

// Rest is the number of bytes not yet read — zero once a decoder has
// consumed exactly its record.
func (c *Cursor) Rest() int { return len(c.data) - c.pos }

func (c *Cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("truncated at byte %d", c.pos)
	}
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil || c.pos >= len(c.data) {
		c.fail()
		return 0
	}
	c.pos++
	return c.data[c.pos-1]
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.pos:])
	if c.err != nil || n <= 0 {
		c.fail()
		return 0
	}
	c.pos += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (c *Cursor) Varint() int64 {
	v, n := binary.Varint(c.data[c.pos:])
	if c.err != nil || n <= 0 {
		c.fail()
		return 0
	}
	c.pos += n
	return v
}

// Str reads a uvarint length and that many bytes as a string (a copy,
// so the payload buffer may be reused).
func (c *Cursor) Str() string {
	n := c.Uvarint()
	if c.err != nil || n > uint64(c.Rest()) {
		c.fail()
		return ""
	}
	c.pos += int(n)
	return string(c.data[c.pos-int(n) : c.pos])
}

// AppendStr is the encoding Str reads.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
