// Package repl implements WAL-shipping replication. The leader side
// (Source) serves two HTTP endpoints under /repl/: a checkpoint
// download for follower bootstrap and a CRC-framed stream of WAL
// record batches with resumable cursors. The follower side (Replica)
// bootstraps from the newest leader checkpoint, tails the WAL stream
// with exponential-backoff retries on every network and decode fault,
// and applies records through the same durable pipeline the leader
// uses — so a follower is itself a valid crash-recoverable node at
// every instant.
//
// Trust model: the transport is assumed lossy and tearing (faults are
// injected in tests via FaultTransport), never byzantine. Every frame
// is CRC32C-guarded so torn bodies and bit flips surface as decode
// errors — retried with backoff — rather than mis-applied records; the
// WAL sequence numbers carried inside the records, not the transport,
// decide what is applied. Leader and followers run the same build:
// neither the stream nor the checkpoint is negotiated, and a follower
// refuses a checkpoint of another version.
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
	"io"
	"math"

	"provex/internal/recfile"
	"provex/internal/wal"
)

// The body of a /repl/wal response is recfile frames (CRC32C), the
// codec of the WAL's own files, and nothing after them:
//
//	header frame: uvarint synced, next.Seg, next.Off, record count
//	that many record frames: the WAL's on-disk frames, byte for byte
//
// The header goes first because wal.ReadBatch knows all four values
// before the first byte is written; the count is what tells a whole
// batch from a torn one.

// maxStreamHeader caps the header frame: four uvarints.
const maxStreamHeader = 4 * binary.MaxVarintLen64

// appendBatch appends b to buf in the stream layout.
func appendBatch(buf []byte, b wal.Batch) []byte {
	at := len(buf)
	buf = recfile.BeginFrame(buf)
	buf = binary.AppendUvarint(buf, b.Synced)
	buf = binary.AppendUvarint(buf, uint64(b.Next.Seg))
	buf = binary.AppendUvarint(buf, uint64(b.Next.Off))
	buf = binary.AppendUvarint(buf, uint64(len(b.Records)))
	recfile.EndFrame(buf, at)
	for _, rec := range b.Records {
		at = len(buf)
		buf = append(recfile.BeginFrame(buf), rec...)
		recfile.EndFrame(buf, at)
	}
	return buf
}

// readBatch decodes one stream from r, calling fn with each record
// payload in stream order (CRC-verified; fn owns it), and returns the
// header's watermark and resume cursor. A damaged frame, a malformed
// header, fewer records than the header counts and bytes after the
// last of them are errors — by then fn has seen the whole records ahead
// of the damage; an error from fn is returned as-is. Lengths are capped
// before allocation, so hostile input cannot panic it.
func readBatch(r io.Reader, fn func(payload []byte) error) (synced uint64, next wal.Cursor, err error) {
	p, err := recfile.ReadFrame(r, maxStreamHeader)
	if err != nil {
		return 0, wal.Cursor{}, fmt.Errorf("repl: stream header: %w", err)
	}
	c := recfile.NewCursor(p)
	synced, seg, off, count := c.Uvarint(), c.Uvarint(), c.Uvarint(), c.Uvarint()
	if c.Err() != nil || c.Rest() != 0 || seg > math.MaxInt32 || off > math.MaxInt64 {
		return 0, wal.Cursor{}, errors.New("repl: malformed stream header")
	}
	for i := uint64(0); i < count; i++ {
		p, err := recfile.ReadFrame(r, wal.MaxRecordLen)
		if err != nil {
			return 0, wal.Cursor{}, fmt.Errorf("repl: record %d of %d: %w", i+1, count, err)
		}
		if err := fn(p); err != nil {
			return 0, wal.Cursor{}, err
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return 0, wal.Cursor{}, errors.New("repl: stream does not end after its last record")
	}
	return synced, wal.Cursor{Seg: int(seg), Off: int64(off)}, nil
}
