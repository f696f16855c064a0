package bundle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"provex/internal/metrics"
	"provex/internal/recfile"
	"provex/internal/score"
	"provex/internal/tweet"
)

// Binary bundle encoding, used by the on-disk back-end. The format is a
// flat varint stream:
//
//	magic byte 0xB5, version byte
//	bundle id, closed flag, node count
//	per node: parent+1 (so NoParent encodes as 0), conn type, the raw
//	          message fields (tweet.AppendRaw: id, unix-nano date, user,
//	          text)
//
// A node stores only what cannot be derived. Its edge's Eq. 5 score is
// a function of its two nodes (EdgeScore), and its indicants —
// hashtags, URLs, re-shared user and keywords — are functions of its
// text: decode rebuilds the record with score.NewDoc, the builder
// prepare and WAL replay use, and the tokenizer is deterministic and
// keeps first occurrences in order, so a decoded node's terms equal the
// live one's.
// No term-dictionary ID is stored (another process numbers terms
// differently). Summaries, extent and memory estimate are not stored
// either: they are rebuilt from the nodes, which keeps the format small
// and makes corruption detectable through Validate after load.

const (
	codecMagic   = 0xB5
	codecVersion = 3
)

// ErrCorrupt reports a structurally invalid encoded bundle.
var ErrCorrupt = errors.New("bundle: corrupt encoding")

// AppendMarshal appends the bundle's encoding to buf: the checkpoint
// and the store encode straight into their reused frame buffers.
func (b *Bundle) AppendMarshal(buf []byte) []byte {
	buf = appendHeader(buf, b.ID(), b.closed, len(b.nodes))
	for _, n := range b.nodes {
		buf = appendNode(buf, n.Parent, n.Conn, n.Doc)
	}
	return buf
}

// appendHeader appends the encoding's magic, version, bundle ID, closed
// flag and node count, first growing buf by what the header and that
// many nodes of a typical message take.
func appendHeader(buf []byte, id ID, closed bool, nodes int) []byte {
	buf = slices.Grow(buf, 64+nodes*96)
	buf = append(buf, codecMagic, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(id))
	if closed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(nodes))
}

// appendNode appends one node's encoding.
func appendNode(buf []byte, parent int32, conn score.ConnectionType, doc score.Doc) []byte {
	buf = binary.AppendUvarint(buf, uint64(parent+1))
	buf = append(buf, byte(conn))
	return doc.AppendRaw(buf)
}

// Unmarshal decodes an encoded bundle, rebuilding summaries, extent and
// memory estimate from the node data. The decoded bundle satisfies
// Validate if the input was produced by AppendMarshal.
func Unmarshal(data []byte) (*Bundle, error) {
	r, err := decode(data, false)
	return r.b, err
}

// Decode decodes an encoded bundle in the form a pool holds it (Ref): an
// open bundle of one root message straight into its record, with no
// Bundle built, any other as Unmarshal decodes it.
func Decode(data []byte) (Ref, error) { return decode(data, true) }

// decode is Unmarshal, and with records set Decode.
func decode(data []byte, records bool) (Ref, error) {
	r := recfile.NewCursor(data)
	truncated := func() error { return fmt.Errorf("%w: %v", ErrCorrupt, r.Err()) }
	if r.Byte() != codecMagic {
		return Ref{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.Byte(); v != codecVersion {
		return Ref{}, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	id := ID(r.Uvarint())
	closed := r.Byte() == 1
	n := r.Uvarint()
	if r.Err() != nil {
		return Ref{}, truncated()
	}
	if id == 0 || id > MaxID {
		return Ref{}, fmt.Errorf("%w: bundle ID %d outside 1..%d", ErrCorrupt, id, MaxID)
	}
	// A node takes at least 6 bytes: a byte each for parent,
	// connection, message ID, date and the two string lengths. The bound
	// keeps the node slice made below within 16/6 of the input's size.
	if n > uint64(len(data))/6 {
		return Ref{}, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, n)
	}
	var out Ref
	var b *Bundle
	for i := uint64(0); i < n; i++ {
		parent := int32(r.Uvarint()) - 1
		conn := score.ConnectionType(r.Byte())
		msg := tweet.DecodeRaw(r)
		if r.Err() != nil {
			return Ref{}, truncated()
		}
		if parent != NoParent && (parent < 0 || uint64(parent) >= i) {
			return Ref{}, fmt.Errorf("%w: node %d parent %d", ErrCorrupt, i, parent)
		}
		node := Node{Doc: score.NewDoc(msg), Parent: parent, Conn: conn}
		if records && heldAsRecord(closed, int(n), node) {
			out = Single(id, node.Doc)
			continue
		}
		if b == nil {
			b = New(id)
			b.nodes = makeFor[Node](int(n), metrics.NodeBase)
		}
		b.nodes = append(b.nodes, node)
		b.absorb(node.Doc)
	}
	if out.IsZero() {
		if b == nil { // no node
			b = New(id)
		}
		b.closed = closed
		out = b.Ref()
	}
	if r.Rest() != 0 {
		return Ref{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Rest())
	}
	return out, nil
}
