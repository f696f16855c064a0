// Round ledger: the durable record of completed two-phase rounds. One
// fixed-layout record is appended and fsynced after each round's WAL
// appends are synced on every shard; the newest valid record therefore
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
// The file is a bare sequence of recfile frames (CRC32-IEEE, no magic);
// the payload is uvarints: global seq, shard count, then one local
// watermark per shard. A torn tail — the crash hit mid-append —
// invalidates only the final frame; earlier frames still parse, so the
// ledger degrades to the previous round's cut, never to garbage. The
// checkpoint barrier resets the ledger (all state is then covered by the
// per-shard checkpoints and the manifest).

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"provex/internal/fsx"
	"provex/internal/recfile"
)

const (
	// maxCutLen caps one ledger record and maxCutShards the shard count
	// it may name, so a corrupt length cannot drive an absurd allocation.
	maxCutLen    = 1 << 20
	maxCutShards = 1 << 16
)

// ledgerCut is one decoded ledger record: the consistent cut after a
// completed round.
type ledgerCut struct {
	global     uint64   // stream position: messages durable across all shards
	watermarks []uint64 // per-shard local WAL sequence at the cut
}

// ledger is the writer-side handle. Writer-goroutine only.
type ledger struct {
	f   fsx.File // opened for appending
	buf []byte
}

// openLedger opens (creating if needed) the ledger for appends and
// returns the newest valid cut, ok=false when the file is empty or
// unreadable past frame zero.
func openLedger(fsys fsx.FS, path string) (*ledger, ledgerCut, bool, error) {
	cut, ok := ledgerCut{}, false
	if f, err := fsys.Open(path); err == nil {
		cut, ok = scanLedger(f)
		f.Close()
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, ledgerCut{}, false, fmt.Errorf("shard: ledger open: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, ledgerCut{}, false, fmt.Errorf("shard: ledger open: %w", err)
	}
	return &ledger{f: f}, cut, ok, nil
}

// scanLedger walks the frames and returns the last one that parses.
// Torn or corrupt tails end the scan without error: the previous frame
// is still a valid (if older) consistent cut.
func scanLedger(r io.Reader) (ledgerCut, bool) {
	cut, ok := ledgerCut{}, false
	for {
		payload, err := recfile.ReadFrame(r, crc32.IEEETable, maxCutLen)
		if err != nil {
			return cut, ok
		}
		c, err := decodeCut(payload)
		if err != nil {
			return cut, ok
		}
		cut, ok = c, true
	}
}

func decodeCut(p []byte) (ledgerCut, error) {
	c := recfile.NewCursor(p)
	cut := ledgerCut{global: c.Uvarint()}
	n := c.Uvarint()
	if c.Err() != nil || n > maxCutShards {
		return cut, errors.New("shard: ledger: bad global seq or shard count")
	}
	cut.watermarks = make([]uint64, n)
	for i := range cut.watermarks {
		cut.watermarks[i] = c.Uvarint()
	}
	if err := c.Err(); err != nil {
		return cut, fmt.Errorf("shard: ledger: watermarks: %w", err)
	}
	return cut, nil
}

// append writes (one frame, one write) and fsyncs one cut. On error the
// round is not acknowledged; a torn frame is tolerated by the next scan.
func (l *ledger) append(global uint64, watermarks []uint64) error {
	l.buf = recfile.BeginFrame(l.buf[:0])
	l.buf = binary.AppendUvarint(l.buf, global)
	l.buf = binary.AppendUvarint(l.buf, uint64(len(watermarks)))
	for _, w := range watermarks {
		l.buf = binary.AppendUvarint(l.buf, w)
	}
	recfile.EndFrame(l.buf, 0, crc32.IEEETable)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("shard: ledger append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("shard: ledger sync: %w", err)
	}
	return nil
}

// reset empties the ledger after a checkpoint barrier: everything it
// recorded is now covered by the per-shard checkpoints + manifest. A
// crash mid-reset leaves either the old frames (stale — recovery
// ignores cuts at or below the manifest's global seq) or an empty file;
// both recover correctly. The handle appends, so the next cut lands at
// the new end.
func (l *ledger) reset() error {
	err := l.f.Truncate(0)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("shard: ledger reset: %w", err)
	}
	return nil
}

func (l *ledger) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	return l.f.Close()
}
