package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"slices"

	"provex/internal/recfile"
)

// This file is the replication read surface of the log: ReadBatch lets
// a shipping service stream CRC-verified record payloads to follower
// replicas while the single writer keeps appending. Readers use their
// own file handles and consult only the Dir's read-only surface (List,
// Scan) plus the atomic synced watermark, so they never contend with —
// or block — the ingest path.

// ErrGap reports that the log cannot supply a contiguous run of
// sequences after the requested point: the records were truncated away
// by a checkpoint, or a sealed file is unreadable. Replication
// followers react by re-bootstrapping from the newest checkpoint
// instead of silently skipping messages.
var ErrGap = errors.New("wal: sequence gap")

// Cursor is a resumable read position: segment number plus the byte
// offset of the next record header. It is strictly an optimization
// hint — ReadBatch falls back to a full scan whenever the hinted
// position is missing, stale, or misaligned — so callers may persist
// it loosely or lose it entirely without correctness cost.
type Cursor struct {
	Seg int
	Off int64
}

// Batch is one ReadBatch result: encoded record payloads (CRC-verified
// on read, decodable with DecodeRecord) in strictly contiguous
// ascending sequence order starting at after+1, the cursor to resume
// from, and the durability watermark observed before the scan.
type Batch struct {
	Records [][]byte
	Next    Cursor
	Synced  uint64
}

// SyncedSeq returns the durable watermark: the highest sequence known
// to be fully on stable storage. Safe from any goroutine.
func (l *Log) SyncedSeq() uint64 { return l.synced.Load() }

// defaultBatchBytes bounds a ReadBatch when the caller passes no limit.
const defaultBatchBytes = 1 << 20

// ReadBatch collects record payloads with sequence in (after, synced]
// up to roughly maxBytes (always at least one record when any are
// available), resuming from hint when it is usable. It is safe to call
// concurrently with the writer: only durable records — covered by the
// synced watermark, whose store ordering guarantees their bytes are
// visible — are ever shipped, so an in-flight torn tail is never
// misread as data.
//
// An empty batch with a nil error means the follower is caught up to
// the watermark. ErrGap means the records the caller needs are gone
// (checkpoint truncation passed the follower by); the caller must
// re-bootstrap from a checkpoint rather than resume.
func (l *Log) ReadBatch(after uint64, hint Cursor, maxBytes int) (Batch, error) {
	synced := l.synced.Load()
	b := Batch{Synced: synced, Next: hint}
	if synced <= after {
		return b, nil
	}
	if maxBytes <= 0 {
		maxBytes = defaultBatchBytes
	}
	segs, err := l.dir.List()
	if err != nil {
		return Batch{}, err
	}
	// Hinted attempt: resume where the previous batch ended. Anything
	// suspicious about the result — no records where the watermark says
	// there are some, or a first sequence that is not exactly after+1 —
	// discards it in favor of a full scan; sequence numbers, not the
	// cursor, are the source of truth.
	if i := slices.Index(segs, hint.Seg); i >= 0 && hint.Off >= recfile.MagicSize {
		hb := Batch{Synced: synced}
		if err := l.scanRun(segs[i:], hint.Off, after, synced, maxBytes, &hb); err != nil {
			return Batch{}, err
		}
		if len(hb.Records) > 0 && recordSeq(hb.Records[0]) == after+1 {
			return hb, nil
		}
	}
	fb := Batch{Synced: synced}
	if err := l.scanRun(segs, 0, after, synced, maxBytes, &fb); err != nil {
		return Batch{}, err
	}
	if len(fb.Records) == 0 || recordSeq(fb.Records[0]) != after+1 {
		return Batch{}, fmt.Errorf("%w: no contiguous records after %d (synced %d)", ErrGap, after, synced)
	}
	return fb, nil
}

// scanRun walks segs in order — the first from off, the rest from the
// top (0 means magic first) — appending records with sequence in (after,
// synced] to b and advancing b.Next past every intact record it passes.
// It moves on to the next segment only at a clean end-of-file. Any
// anomaly — torn bytes, a bad checksum, a stillborn file, an in-flight
// record past the watermark, an exhausted budget — ends the run, because
// records collected after skipping an unreadable region would hide a
// sequence gap inside the batch. A segment that vanished (concurrent
// checkpoint truncation) is skipped only while the batch is still empty;
// the contiguity check in ReadBatch decides whether what remains is
// servable.
func (l *Log) scanRun(segs []int, off int64, after, synced uint64, budget int, b *Batch) error {
	for _, seg := range segs {
		stopped := false
		_, err := l.dir.Scan(seg, off, false, func(_ int, at int64, payload []byte) error {
			seq, n := binary.Uvarint(payload)
			if n <= 0 {
				return errors.New("bad sequence")
			}
			if seq > synced {
				// Not yet durable on this node; never ship it.
				stopped = true
				return recfile.Stop
			}
			size := recfile.HeaderSize + len(payload)
			if seq > after {
				b.Records = append(b.Records, payload)
				budget -= size
			}
			b.Next = Cursor{Seg: seg, Off: at + int64(size)}
			if budget <= 0 && len(b.Records) > 0 {
				stopped = true
				return recfile.Stop
			}
			return nil
		})
		switch {
		case errors.Is(err, fs.ErrNotExist):
			stopped = len(b.Records) > 0
		case errors.Is(err, ErrCorrupt):
			// The writer's in-flight tail, or damage: either way the run
			// ends here.
			stopped = true
		case err != nil:
			return err
		}
		if stopped {
			return nil
		}
		off = 0
	}
	return nil
}

// recordSeq peeks the sequence number off an encoded record payload.
// Only called on payloads scanRun already CRC-verified and uvarint-
// checked, so decoding cannot fail here.
func recordSeq(payload []byte) uint64 {
	seq, _ := binary.Uvarint(payload)
	return seq
}
