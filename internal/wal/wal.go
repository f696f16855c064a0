// Package wal is the write-ahead log of the ingest path: every raw
// message is appended, and its batch written and fsynced, before it is
// applied to the in-memory engine, so a crash loses at most the
// unsynced tail — everything acknowledged survives as checkpoint +
// WAL replay.
//
// Group commit: Append only encodes a framed record into the open
// batch, a buffer the log owns and reuses; Sync lands the whole batch
// with one write and one fsync. The owner decides where a batch ends:
// the ingest loop calls Sync once per batch it drained from its queue
// (DESIGN.md §2c). Only a log opened with SyncEvery n > 0 also syncs by
// itself on every n-th Append. A batch lands whole or not at all: if
// the write comes up short or the fsync fails, the file is cut back to
// its last synced length and the batch is dropped, so the file on disk
// always ends at a sync point and a later batch starts at a clean
// record boundary.
//
// The files are a recfile.Dir (wal-000001.log, ...; magic, CRC32C
// frames, torn-tail recovery — DESIGN.md §2d has the table). What this
// package adds on top of that layer: one record is one message tagged
// with its stream sequence number (the engine's message ordinal) and
// sequences only grow; the batch buffer and group commit above; the
// synced watermark replication reads up to (reader.go); and Truncate —
// called after a checkpoint has made all logged messages redundant —
// which starts a fresh file and removes the old ones, so normally a
// single file is live, stale files only pile up when removal itself
// fails, and replay filters those by sequence number anyway.
//
// Concurrency contract: the log has one owner at a time — Append, Sync,
// Truncate, Rebase, Replay and Close must never run concurrently. In a
// pipeline.Service the owner is the log stage, or the writer while the
// stage is parked at a checkpoint barrier (DESIGN.md §2c); a tool's
// main loop or a shard's commit goroutine owns its log outright. Size,
// SyncedSeq, ReadBatch and the series registered by RegisterMetrics
// are the concurrent-read surfaces: they are backed by atomics and
// their own file handles, safe while the owner is mid-append.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/recfile"
	"provex/internal/score"
	"provex/internal/tweet"
)

// MaxRecordLen caps one record's payload so a corrupt length field
// cannot drive an absurd allocation during replay (or on a follower
// reading shipped records).
const MaxRecordLen = 16 << 20

// ErrCorrupt reports an unreadable sealed WAL file, or an intact
// record in any file that does not decode.
var ErrCorrupt = errors.New("wal: corrupt log")

// logFormat is the on-disk layout of a log directory.
var logFormat = recfile.Format{
	Pkg:       "wal",
	Magic:     [8]byte{'P', 'R', 'O', 'V', 'W', 'A', 'L', '1'},
	Name:      "wal-%06d.log",
	MaxRecord: MaxRecordLen,
	Corrupt:   ErrCorrupt,
}

// Options tune a Log.
type Options struct {
	// FS is the filesystem; nil uses the real one.
	FS fsx.FS
	// SyncEvery, when n > 0, makes the n-th appended record of a batch
	// write and fsync it (1: every append). 0 leaves every sync to the
	// owner's Sync.
	SyncEvery int
}

// Log is an open write-ahead log positioned for appending. Not safe
// for concurrent use: it has one owner at a time (see the package
// comment). The only exceptions are Size, SyncedSeq, ReadBatch and the
// RegisterMetrics instruments, which are atomic (or internally locked)
// so a metrics scrape or a replication read may run while the owner
// appends.
type Log struct {
	opts Options

	// dir through lastSeq belong to the current owner — the pipeline's log
	// stage, or its writer while the stage is parked at a checkpoint
	// barrier; the hand-over between the two is a channel operation, so
	// the fields carry no lock. Cross-goroutine reads go through the
	// atomics below instead (and dir's List and Scan, which are safe
	// beside the owner).
	dir     *recfile.Dir  // the log files: creation, recovery, tail repair
	f       fsx.File      // dir's active file, where Sync lands the batch
	size    atomic.Int64  // bytes appended to the active file, the open batch included; atomic for scrapes
	batch   []byte        // the open batch: framed records not yet written; reused across syncs
	pending int           // records in batch
	encode  time.Duration // time spent encoding the open batch
	lastSeq uint64        // highest sequence appended or replayed

	// synced is the shipping watermark: the highest sequence known to be
	// fully on stable storage. Atomic, because replication readers
	// (ReadBatch) consult it from HTTP handler goroutines while the
	// owner appends.
	synced atomic.Uint64

	// Observability: encode + batch-write time (one observation per batch
	// written), fsync latency (one observation per physical fsync) and
	// truncations. Exported via RegisterMetrics.
	appendTimer metrics.StageTimer
	syncHist    *metrics.Histogram
	truncations metrics.Counter
}

// RegisterMetrics exposes the log's instruments on reg under canonical
// provex_wal_* names (documented in OBSERVABILITY.md). labels are extra
// key/value pairs baked into every series — the sharded engine passes
// ("shard", "i") so each shard's WAL exports its own size gauge and
// latency series in the shared registry.
func (l *Log) RegisterMetrics(reg *metrics.Registry, labels ...string) {
	reg.RegisterTimer("provex_wal_append_seconds",
		"Cumulative time encoding WAL records and writing their batches (excludes fsync); one observation per batch written.", &l.appendTimer, labels...)
	reg.RegisterHistogram("provex_wal_fsync_seconds",
		"Latency of WAL fsyncs (one fsync lands one batch: every record appended since the last).", l.syncHist, 1e9, labels...)
	reg.RegisterCounter("provex_wal_truncations_total",
		"WAL truncations after a covering checkpoint.", &l.truncations, labels...)
	reg.RegisterGaugeFunc("provex_wal_size_bytes",
		"Byte length of the active WAL file.", func() float64 { return float64(l.Size()) }, labels...)
}

// fsyncBounds bucket WAL fsync-batch latency from 50µs (page cache
// absorbing the write) to 1s (saturated or faulty disk).
var fsyncBounds = []int64{
	int64(50 * time.Microsecond), int64(100 * time.Microsecond),
	int64(250 * time.Microsecond), int64(500 * time.Microsecond),
	int64(time.Millisecond), int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond), int64(10 * time.Millisecond),
	int64(25 * time.Millisecond), int64(50 * time.Millisecond),
	int64(100 * time.Millisecond), int64(250 * time.Millisecond),
	int64(500 * time.Millisecond), int64(time.Second),
}

// Open opens (creating if needed) the log at dir, verifies existing
// files and truncates a torn tail in the final one, leaving the log
// positioned for appends. Use Replay before appending to feed logged
// messages back into the engine.
func Open(dir string, opts Options) (*Log, error) {
	opts.FS = fsx.Default(opts.FS)
	l := &Log{opts: opts, syncHist: metrics.NewHistogram(fsyncBounds...)}
	d, size, err := recfile.Open(opts.FS, dir, &logFormat, func(_ int, _ int64, payload []byte) error {
		seq, _, err := DecodeRecord(payload)
		if seq > l.lastSeq {
			l.lastSeq = seq
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	l.dir, l.f = d, d.File()
	l.size.Store(size)
	// Everything that survived recovery is on disk by definition.
	l.synced.Store(l.lastSeq)
	return l, nil
}

// Wipe removes every file of the log directory at dir (it is flat),
// tolerating a missing directory. For callers that know the whole log
// is void: a shard none of whose records was ever acknowledged, a
// follower about to install a checkpoint the old records predate.
func Wipe(fsys fsx.FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	for _, name := range names {
		if err == nil {
			err = fsys.Remove(filepath.Join(dir, name))
		}
	}
	if err != nil {
		return fmt.Errorf("wal: wipe: %w", err)
	}
	return nil
}

// Replay streams every logged message with sequence > afterSeq to fn in
// log order. Call it once, after Open and before the first Append.
// afterSeq is the message count the restored checkpoint already covers.
func (l *Log) Replay(afterSeq uint64, fn func(seq uint64, m *tweet.Message) error) error {
	segs, err := l.dir.List()
	if err != nil {
		return err
	}
	for i, seg := range segs {
		var fnErr error
		_, err := l.dir.Scan(seg, 0, i == len(segs)-1, func(_ int, _ int64, payload []byte) error {
			seq, m, err := DecodeRecord(payload)
			if err != nil || seq <= afterSeq {
				return err
			}
			if fnErr = fn(seq, m); fnErr != nil {
				return recfile.Stop
			}
			return nil
		})
		if fnErr != nil {
			return fnErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// AppendRecord appends the canonical record payload of (seq, m) to buf
// — the sequence and the raw message fields: the bytes ReadBatch ships
// and DecodeRecord parses.
func AppendRecord(buf []byte, seq uint64, m *score.Msg) []byte {
	return m.AppendRaw(binary.AppendUvarint(buf, seq))
}

// DecodeRecord parses one record payload back into its sequence and
// message: the inverse of AppendRecord, on a follower too.
func DecodeRecord(payload []byte) (uint64, *tweet.Message, error) {
	c := recfile.NewCursor(payload)
	seq := c.Uvarint()
	m := tweet.DecodeRaw(c)
	if err := c.Err(); err != nil {
		return 0, nil, err
	}
	if c.Rest() != 0 {
		return 0, nil, errors.New("trailing bytes")
	}
	return seq, m, nil
}

// Append encodes message m under sequence seq (the engine ordinal it
// will occupy) into the open batch; under SyncEvery n > 0 the n-th
// record also writes and fsyncs it. Sequences must be appended in
// increasing order. A nil return promises nothing by itself: the
// message is durable once a Sync — this one's, a later Append's or an
// explicit one — has returned nil. An error means the whole open batch
// was dropped (see Sync).
func (l *Log) Append(seq uint64, m *score.Msg) error {
	if err := l.dir.Broken(); err != nil {
		return err
	}
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: sequence %d not after %d", seq, l.lastSeq)
	}
	start := time.Now()
	at := len(l.batch)
	l.batch = AppendRecord(recfile.BeginFrame(l.batch), seq, m)
	recfile.EndFrame(l.batch, at)
	l.encode += time.Since(start)
	l.size.Add(int64(len(l.batch) - at))
	l.lastSeq = seq
	l.pending++
	if l.opts.SyncEvery > 0 && l.pending >= l.opts.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync lands the open batch: one write, one fsync. On success every
// record appended so far is on stable storage and the synced watermark
// moves up to the last of them. If the write fails or comes up short,
// or the fsync fails, none of the batch counts: the file is cut back to
// its last synced length (recfile.Dir.Rewind), the batch is dropped and
// LastSeq falls back to the synced watermark. If that repair itself
// fails the log is broken: Append and Truncate are refused until it is
// reopened.
func (l *Log) Sync() error {
	if l.pending == 0 {
		return nil
	}
	start := time.Now()
	n, err := l.f.Write(l.batch)
	if err == nil && n < len(l.batch) {
		err = io.ErrShortWrite
	}
	l.appendTimer.Observe(l.encode + time.Since(start))
	if err == nil {
		start = time.Now()
		if err = l.f.Sync(); err == nil {
			l.syncHist.Observe(int64(time.Since(start)))
		}
	}
	if err != nil {
		l.size.Add(-int64(len(l.batch)))
		l.lastSeq = l.synced.Load()
		l.dir.Rewind(l.size.Load())
		err = fmt.Errorf("wal: %w", err)
	} else {
		l.synced.Store(l.lastSeq)
	}
	l.batch, l.pending, l.encode = l.batch[:0], 0, 0
	return err
}

// Rebase resets the sequence watermarks to seq. Only valid while the
// log holds no records — immediately after Truncate — where the
// append-monotonicity guard has no content left to protect. The
// durability layer uses it when a checkpoint follows a recovery whose
// replay was trimmed below the log's scanned tail (the sharded round
// ledger, DESIGN.md §2i): the scan saw torn-round sequences above the
// consistent cut, and without the rebase every re-issued sequence
// would collide with them. Rebasing to the same value is a no-op, which
// is what every untrimmed checkpoint does.
func (l *Log) Rebase(seq uint64) {
	l.lastSeq = seq
	l.synced.Store(seq)
}

// Size returns the byte length of the active log file. Unlike the rest
// of the Log it is safe to call from any goroutine (metrics scrapes
// read it live).
func (l *Log) Size() int64 { return l.size.Load() }

// Truncate discards all logged records — call it only after a
// checkpoint has made every logged message redundant. A fresh file is
// started (and synced) before old files are removed, so a crash at any
// point leaves either the old records (harmless: replay filters by
// sequence) or the clean new file.
func (l *Log) Truncate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.dir.CreateNext(); err != nil {
		// The old file is still live and intact (or the log is broken,
		// and stays refused): appends simply continue into it.
		return err
	}
	l.f = l.dir.File()
	l.size.Store(recfile.MagicSize)
	// Stale files are tolerated: replay filters their records by
	// sequence. Surface the error so callers can count it.
	if err := l.dir.RemoveBefore(l.dir.Seg()); err != nil {
		return err
	}
	l.truncations.Inc()
	return nil
}

// Close syncs and closes the active file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.dir.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
