// Package repl implements WAL-shipping replication. The leader side
// (Source) serves three HTTP endpoints under /repl/: a status probe, a
// checkpoint download for follower bootstrap, and a CRC-framed stream
// of WAL record batches with resumable cursors. The follower side
// (Replica) bootstraps from the newest leader checkpoint, tails the
// WAL stream with exponential-backoff retries on every network and
// decode fault, and applies records through the same durable pipeline
// the leader uses — so a follower is itself a valid crash-recoverable
// node at every instant.
//
// Trust model: the transport is assumed lossy and tearing (faults are
// injected in tests via FaultTransport), never byzantine. Every frame
// is CRC32C-guarded so torn bodies and bit flips surface as decode
// errors — retried with backoff — rather than mis-applied records; the
// WAL sequence numbers carried inside the records, not the transport,
// decide what is applied.
//
// Replication is a single-shard feature: it ships one serial WAL, and
// a sharded leader (internal/shard) writes N independent logs whose
// consistent cut lives in the round ledger, not in any one log. A
// sharded deployment would need per-shard shipping plus a
// follower-side round reducer — future work, see DESIGN.md §2i.
// provserve refuses -follow with -shards > 1 and sharded leaders
// expose no /repl/ endpoints.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"provex/internal/recfile"
	"provex/internal/wal"
)

// streamMagic opens every WAL stream response body.
const streamMagic = "PROVREP1"

// Frame wire format: [type:1][payloadLen:4 LE][crc32c:4 LE][payload].
const (
	frameHeaderSize = 9
	frameRecord     = 'R' // payload: one WAL record encoding (wal.DecodeRecord)
	frameEnd        = 'E' // payload: uvarint synced, uvarint next.Seg, uvarint next.Off
	// maxFramePayload is the WAL's record cap: a frame carries one WAL
	// record, and a corrupt length field cannot drive an absurd
	// allocation on the follower.
	maxFramePayload = wal.MaxRecordLen
)

// ErrFrame reports an undecodable stream: torn bytes, checksum
// mismatch, unknown frame type, or a malformed trailer. Followers
// treat it like any transport fault — drop the stream and retry.
var ErrFrame = errors.New("repl: corrupt frame")

// StreamEnd is the trailer of every WAL stream: the leader's durable
// watermark at read time and the cursor to resume the next request
// from. A stream without it is torn and must be discarded.
type StreamEnd struct {
	Synced uint64
	Next   wal.Cursor
}

// StreamWriter frames a WAL batch onto w (the leader's HTTP response).
type StreamWriter struct {
	w     io.Writer
	begun bool
}

// NewStreamWriter wraps w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

func (s *StreamWriter) begin() error {
	if s.begun {
		return nil
	}
	s.begun = true
	_, err := io.WriteString(s.w, streamMagic)
	return err
}

// Record frames one WAL record payload.
func (s *StreamWriter) Record(payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("repl: record too large (%d bytes)", len(payload))
	}
	if err := s.begin(); err != nil {
		return err
	}
	return writeFrame(s.w, frameRecord, payload)
}

// End frames the stream trailer. Call it exactly once, last.
func (s *StreamWriter) End(end StreamEnd) error {
	if err := s.begin(); err != nil {
		return err
	}
	buf := make([]byte, 0, 3*binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, end.Synced)
	buf = binary.AppendUvarint(buf, uint64(end.Next.Seg))
	buf = binary.AppendUvarint(buf, uint64(end.Next.Off))
	return writeFrame(s.w, frameEnd, buf)
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, recfile.Castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadStream decodes one WAL stream from r, calling fn with each
// record payload (CRC-verified; ownership passes to fn) in stream
// order, and returns the trailer. Any anomaly — short magic, torn
// frame, checksum mismatch, unknown type, malformed trailer — returns
// ErrFrame (wrapped); an error from fn is returned as-is. ReadStream
// never panics on hostile input: lengths are capped before allocation
// and every byte is checksum-guarded.
func ReadStream(r io.Reader, fn func(payload []byte) error) (StreamEnd, error) {
	var magic [len(streamMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return StreamEnd{}, fmt.Errorf("%w: short magic: %v", ErrFrame, err)
	}
	if string(magic[:]) != streamMagic {
		return StreamEnd{}, fmt.Errorf("%w: bad magic %q", ErrFrame, magic)
	}
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return StreamEnd{}, fmt.Errorf("%w: torn frame header: %v", ErrFrame, err)
		}
		length := binary.LittleEndian.Uint32(hdr[1:5])
		wantCRC := binary.LittleEndian.Uint32(hdr[5:9])
		if length > maxFramePayload {
			return StreamEnd{}, fmt.Errorf("%w: oversized frame (%d bytes)", ErrFrame, length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return StreamEnd{}, fmt.Errorf("%w: torn frame payload: %v", ErrFrame, err)
		}
		if crc32.Checksum(payload, recfile.Castagnoli) != wantCRC {
			return StreamEnd{}, fmt.Errorf("%w: checksum mismatch", ErrFrame)
		}
		switch hdr[0] {
		case frameRecord:
			if err := fn(payload); err != nil {
				return StreamEnd{}, err
			}
		case frameEnd:
			return decodeEnd(payload)
		default:
			return StreamEnd{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrFrame, hdr[0])
		}
	}
}

func decodeEnd(payload []byte) (StreamEnd, error) {
	c := recfile.NewCursor(payload)
	synced, seg, off := c.Uvarint(), c.Uvarint(), c.Uvarint()
	if c.Err() != nil || c.Rest() != 0 {
		return StreamEnd{}, fmt.Errorf("%w: malformed trailer", ErrFrame)
	}
	if seg > uint64(math.MaxInt32) || off > uint64(math.MaxInt64) {
		return StreamEnd{}, fmt.Errorf("%w: trailer cursor out of range", ErrFrame)
	}
	return StreamEnd{Synced: synced, Next: wal.Cursor{Seg: int(seg), Off: int64(off)}}, nil
}
