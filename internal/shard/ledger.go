// Round ledger: the durable record of completed two-phase rounds. One
// fixed-layout record is appended and fsynced after each round's WAL
// appends are synced on every shard; the newest intact record therefore
// names a globally consistent cut — "the stream prefix up to global
// sequence G is fully durable, and shard s's share of it ends at local
// WAL sequence W[s]".
//
// Recovery reads the newest record and trims every shard's WAL replay
// to its watermark (pipeline.DurableOptions.ReplayLimit): records a
// crashed round managed to sync on SOME shards are discarded, because
// the round never completed and was never acknowledged. What remains
// is exactly a stream prefix, which is what lets a feeder resume from
// "total recovered messages" with no duplicates and no holes.
//
// The ledger is a recfile.Dir (cut-000001.log, ...; its own magic,
// CRC32C frames, torn-tail recovery); a record's payload is uvarints:
// global seq, shard count, then one local watermark per shard. A torn
// tail — the crash hit mid-append — is cut off at open, so the ledger
// degrades to the previous round's cut, never to garbage; an intact
// record that does not decode is corruption. The checkpoint barrier
// truncates the ledger the way wal.Truncate does the log: a new file
// holding only the barrier's cut, then the older files removed.

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"provex/internal/fsx"
	"provex/internal/recfile"
)

const (
	// maxCutLen caps one ledger record and maxCutShards the shard count
	// it may name, so a corrupt length cannot drive an absurd allocation.
	maxCutLen    = 1 << 20
	maxCutShards = 1 << 16
)

// errCorruptLedger reports a sealed ledger file that does not scan, or
// an intact record in any file that does not decode.
var errCorruptLedger = errors.New("shard: corrupt round ledger")

// ledgerFormat is the on-disk layout of the ledger directory.
var ledgerFormat = recfile.Format{
	Pkg:       "shard: ledger",
	Magic:     [8]byte{'P', 'R', 'O', 'V', 'C', 'U', 'T', '1'},
	Name:      "cut-%06d.log",
	MaxRecord: maxCutLen,
	Corrupt:   errCorruptLedger,
}

// ledgerCut is one decoded ledger record: the consistent cut after a
// completed round.
type ledgerCut struct {
	global     uint64   // stream position: messages durable across all shards
	watermarks []uint64 // per-shard local WAL sequence at the cut
}

// ledger is the writer-side handle. Writer-goroutine only.
type ledger struct {
	dir  *recfile.Dir
	size int64 // the active file's synced length
	buf  []byte
}

// openLedger opens (creating if needed) the ledger directory at path
// and returns the newest intact cut: the zero cut, nil watermarks, when
// no file holds one.
func openLedger(fsys fsx.FS, path string) (*ledger, ledgerCut, error) {
	var cut ledgerCut
	dir, size, err := recfile.Open(fsys, path, &ledgerFormat, func(_ int, _ int64, p []byte) error {
		c, err := decodeCut(p)
		if err == nil {
			cut = c
		}
		return err
	})
	if err != nil {
		return nil, ledgerCut{}, err
	}
	return &ledger{dir: dir, size: size}, cut, nil
}

func decodeCut(p []byte) (ledgerCut, error) {
	c := recfile.NewCursor(p)
	cut := ledgerCut{global: c.Uvarint()}
	n := c.Uvarint()
	if c.Err() != nil || n > maxCutShards {
		return cut, errors.New("bad global seq or shard count")
	}
	cut.watermarks = make([]uint64, n)
	for i := range cut.watermarks {
		cut.watermarks[i] = c.Uvarint()
	}
	if err := c.Err(); err != nil {
		return cut, fmt.Errorf("watermarks: %w", err)
	}
	if c.Rest() != 0 {
		return cut, errors.New("trailing bytes")
	}
	return cut, nil
}

// append writes (one frame, one write) and fsyncs one cut. On error the
// round is not acknowledged and the file is cut back to its synced
// length (recfile.Dir.Rewind).
func (l *ledger) append(global uint64, watermarks []uint64) error {
	if err := l.dir.Broken(); err != nil {
		return err
	}
	l.buf = recfile.BeginFrame(l.buf[:0])
	l.buf = binary.AppendUvarint(l.buf, global)
	l.buf = binary.AppendUvarint(l.buf, uint64(len(watermarks)))
	for _, w := range watermarks {
		l.buf = binary.AppendUvarint(l.buf, w)
	}
	recfile.EndFrame(l.buf, 0)
	n, err := l.dir.File().Write(l.buf)
	if err == nil && n < len(l.buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.dir.Sync()
	}
	if err != nil {
		l.dir.Rewind(l.size)
		return fmt.Errorf("shard: ledger append: %w", err)
	}
	l.size += int64(len(l.buf))
	return nil
}

// truncate is the barrier's ledger step: a new file holding only the
// barrier's cut, then the older files removed. The barrier runs between
// rounds, so its cut equals the last round's: until the new file's cut
// is synced the old file ends in that same cut, and a file left behind
// by a failed remove only scans first and loses to it.
func (l *ledger) truncate(global uint64, watermarks []uint64) error {
	if err := l.dir.CreateNext(); err != nil {
		return err
	}
	l.size = recfile.MagicSize
	if err := l.append(global, watermarks); err != nil {
		return err
	}
	return l.dir.RemoveBefore(l.dir.Seg())
}

func (l *ledger) close() error { return l.dir.Close() }
