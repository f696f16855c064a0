package bundle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"provex/internal/recfile"
	"provex/internal/score"
	"provex/internal/tweet"
)

// Binary bundle encoding, used by the on-disk back-end. The format is a
// flat varint stream:
//
//	magic byte 0xB5, version byte
//	bundle id, closed flag, node count
//	per node: parent+1 (so NoParent encodes as 0), score (float64 bits),
//	          conn type, the raw message fields (tweet.AppendRaw: id,
//	          unix-nano date, user, text), keyword count + keywords
//
// Indicant summaries, extent and memory estimate are NOT stored — they
// are deterministic functions of the nodes and are rebuilt on decode,
// which keeps the format small and makes corruption detectable through
// Validate after load.

const (
	codecMagic   = 0xB5
	codecVersion = 1
)

// ErrCorrupt reports a structurally invalid encoded bundle.
var ErrCorrupt = errors.New("bundle: corrupt encoding")

// Marshal encodes the bundle.
func (b *Bundle) Marshal() []byte {
	buf := make([]byte, 0, 64+len(b.nodes)*96)
	buf = append(buf, codecMagic, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(b.id))
	if b.closed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.nodes)))
	for _, n := range b.nodes {
		buf = binary.AppendUvarint(buf, uint64(n.Parent+1))
		buf = binary.AppendUvarint(buf, math.Float64bits(n.Score))
		buf = append(buf, byte(n.Conn))
		buf = tweet.AppendRaw(buf, n.Doc.Msg)
		buf = binary.AppendUvarint(buf, uint64(len(n.Doc.Keywords)))
		for _, k := range n.Doc.Keywords {
			buf = recfile.AppendStr(buf, k)
		}
	}
	return buf
}

// Unmarshal decodes an encoded bundle, rebuilding summaries, extent and
// memory estimate from the node data. The decoded bundle satisfies
// Validate if the input was produced by Marshal.
func Unmarshal(data []byte) (*Bundle, error) {
	r := recfile.NewCursor(data)
	truncated := func() error { return fmt.Errorf("%w: %v", ErrCorrupt, r.Err()) }
	if r.Byte() != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.Byte(); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	id := ID(r.Uvarint())
	closed := r.Byte() == 1
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, truncated()
	}
	if n > uint64(len(data)) { // each node needs >1 byte; cheap bound
		return nil, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, n)
	}
	b := New(id)
	for i := uint64(0); i < n; i++ {
		parent := int32(r.Uvarint()) - 1
		scoreBits := r.Uvarint()
		conn := score.ConnectionType(r.Byte())
		msg := tweet.DecodeRaw(r)
		nk := r.Uvarint() // zero once the cursor has failed
		if nk > uint64(len(data)) {
			return nil, fmt.Errorf("%w: implausible keyword count %d", ErrCorrupt, nk)
		}
		keywords := make([]string, 0, nk)
		for j := uint64(0); j < nk; j++ {
			keywords = append(keywords, r.Str())
		}
		if r.Err() != nil {
			return nil, truncated()
		}
		if parent != NoParent && (parent < 0 || uint64(parent) >= i) {
			return nil, fmt.Errorf("%w: node %d parent %d", ErrCorrupt, i, parent)
		}
		doc := score.Doc{Msg: msg, Keywords: keywords}
		b.nodes = append(b.nodes, Node{
			Doc:    doc,
			Parent: parent,
			Score:  math.Float64frombits(scoreBits),
			Conn:   conn,
		})
		b.absorb(doc)
	}
	b.closed = closed
	if r.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Rest())
	}
	return b, nil
}
