// Package recfile is how provex lays records on disk and on the wire.
// It owns the format decisions the write-ahead log, the bundle store,
// the round ledger, the engine checkpoint and the replication stream
// share, so each exists once: the frame, [len u32 LE][crc32c u32
// LE][payload] (this file), the only frame codec in the tree; the
// segment directory — numbered files that open with a magic and carry
// frames, one append-only tail behind immutable sealed files — and the
// recovery rule that goes with that shape (dir.go); the cursor that
// decodes the varint payloads inside the frames (cursor.go).
//
// What a record means is the caller's business: magic, file names and
// record cap are per-caller constants, and payloads are decoded by the
// caller's callback. Every byte reaches the disk through an fsx.FS, so
// the fault injector covers this package too.
package recfile

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// HeaderSize is the frame header: u32 payload length + u32 CRC.
const HeaderSize = 8

// castagnoli is the CRC32C table of every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// What can be wrong with a frame. Scan reports them with the file and
// offset; a tolerated tail swallows them.
var (
	errTornHeader  = errors.New("torn header")
	errOversized   = errors.New("oversized record")
	errTornPayload = errors.New("torn payload")
	errChecksum    = errors.New("bad checksum")
)

// BeginFrame reserves a frame header at the end of buf. The caller
// appends the payload behind it and closes the frame with EndFrame: a
// record is encoded straight into its batch, with no buffer of its own.
//
//provex:hotpath runs once per WAL append
func BeginFrame(buf []byte) []byte {
	var hdr [HeaderSize]byte
	return append(buf, hdr[:]...)
}

// EndFrame patches the header BeginFrame reserved at buf[at:]:
// everything behind it is the payload.
//
//provex:hotpath runs once per WAL append
func EndFrame(buf []byte, at int) {
	payload := buf[at+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, castagnoli))
}

// ReadFrame reads one frame from r and returns its verified payload,
// which the caller owns. A clean end of input is io.EOF, bare; a torn
// header or payload, a length above maxLen and a checksum mismatch are
// errors naming themselves.
func ReadFrame(r io.Reader, maxLen int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornHeader
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(length) > int64(maxLen) {
		return nil, errOversized
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornPayload
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errChecksum
	}
	return payload, nil
}
