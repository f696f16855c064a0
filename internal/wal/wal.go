// Package wal is the write-ahead log of the ingest path: every raw
// message is appended, and its batch written and fsynced, before it is
// applied to the in-memory engine, so a crash loses at most the
// unsynced tail — everything acknowledged survives as checkpoint +
// WAL replay.
//
// Group commit: Append only encodes a framed record into the open
// batch, a buffer the log owns and reuses; Sync lands the whole batch
// with one write and one fsync. Append calls Sync itself every
// SyncEvery records, callers call it to close a batch early (the ingest
// loop does whenever its queue runs dry). A batch lands whole or not at
// all: if the write comes up short or the fsync fails, the file is cut
// back to its last synced length and the batch is dropped, so the file
// on disk always ends at a sync point and a later batch starts at a
// clean record boundary.
//
// Layout: a log directory holds numbered files (wal-000001.log, ...).
// Each starts with an 8-byte magic and carries length-prefixed CRC32C-
// guarded records; one record is one message tagged with its stream
// sequence number (the engine's message ordinal). Normally a single
// file is live; Truncate — called after a checkpoint has made all
// logged messages redundant — starts a fresh file and removes the old
// ones, so stale files only pile up when removal itself fails, and
// replay filters those by sequence number anyway.
//
// Recovery contract (mirrors package storage): a torn or corrupt
// record in the final file marks the end of the log — the tail is
// truncated on Open. Corruption in an earlier file is an error, since
// sealed files are never legitimately half-written.
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
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/tweet"
)

var walMagic = [8]byte{'P', 'R', 'O', 'V', 'W', 'A', 'L', '1'}

const (
	recordHeaderSize = 8 // u32 length + u32 crc32c
	// maxRecordLen caps one record's payload so a corrupt length field
	// cannot drive an absurd allocation during replay.
	maxRecordLen = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an unreadable sealed WAL file.
var ErrCorrupt = errors.New("wal: corrupt log")

// errBadMagic distinguishes a file whose header never made it to disk
// (crash during creation — recoverable for the final file) from record
// corruption.
var errBadMagic = errors.New("bad magic")

// Options tune a Log.
type Options struct {
	// FS is the filesystem; nil uses the real one.
	FS fsx.FS
	// SyncEvery caps the open batch: the n-th appended record writes and
	// fsyncs it. <=1 syncs every append (the maximally durable default).
	SyncEvery int
}

// Log is an open write-ahead log positioned for appending. Not safe
// for concurrent use: it has one owner at a time (see the package
// comment). The only exceptions are Size, SyncedSeq, ReadBatch and the
// RegisterMetrics instruments, which are atomic (or internally locked)
// so a metrics scrape or a replication read may run while the owner
// appends.
type Log struct {
	fs   fsx.FS
	dir  string
	opts Options

	// f through broken belong to the current owner — the pipeline's log
	// stage, or its writer while the stage is parked at a checkpoint
	// barrier; the hand-over between the two is a channel operation, so
	// the fields carry no lock. Cross-goroutine reads go through the
	// atomics below instead.
	f       fsx.File
	seg     int
	size    atomic.Int64  // bytes appended to the active file, the open batch included; atomic for scrapes
	batch   []byte        // the open batch: framed records not yet written; reused across syncs
	pending int           // records in batch
	encode  time.Duration // time spent encoding the open batch
	lastSeq uint64        // highest sequence appended or replayed
	broken  error         // set when a torn tail could not be repaired; appends refused

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
		"Latency of WAL fsyncs (one fsync covers one batch of at most SyncEvery appends).", l.syncHist, 1e9, labels...)
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
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fs: opts.FS, dir: dir, opts: opts, syncHist: metrics.NewHistogram(fsyncBounds...)}
	segs, err := l.listFiles()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if n := len(segs); n > 0 {
		// A final file without a complete magic is the debris of a crash
		// during file creation; it never held a record. Drop it and fall
		// back to the previous file (or a fresh one).
		if _, _, err := l.scanFile(segs[n-1], true, 0, nil); errors.Is(err, errBadMagic) {
			if rmErr := l.fs.Remove(l.filePath(segs[n-1])); rmErr != nil {
				return nil, fmt.Errorf("wal: remove stillborn file: %w", rmErr)
			}
			segs = segs[:n-1]
		}
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		validLen, maxSeq, err := l.scanFile(seg, last, 0, nil)
		if err != nil {
			return nil, err
		}
		if maxSeq > l.lastSeq {
			l.lastSeq = maxSeq
		}
		if last {
			l.seg = seg
			l.size.Store(validLen)
		}
	}
	if len(segs) == 0 {
		if err := l.startFile(); err != nil {
			return nil, err
		}
		l.synced.Store(l.lastSeq)
		return l, nil
	}
	// Reopen the final file for appending, truncating any torn tail.
	f, err := l.fs.OpenFile(l.filePath(l.seg), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(l.size.Load()); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	// Everything that survived recovery is on disk by definition.
	l.synced.Store(l.lastSeq)
	return l, nil
}

// filePath names log file n.
func (l *Log) filePath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%06d.log", n))
}

// listFiles returns existing log file numbers ascending.
func (l *Log) listFiles() ([]int, error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, "wal-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// startFile begins a fresh log file after the current number and syncs
// its header, so the file itself survives a crash. Every failure path
// leaves the log retryable: the current file stays untouched (l.seg and
// l.f change only on success), and a half-created next file is removed
// (or replaced on the next attempt) so it cannot block future starts.
func (l *Log) startFile() error {
	next := l.seg + 1
	path := l.filePath(next)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrExist) {
		// Debris of a previously failed start; replace it.
		if rmErr := l.fs.Remove(path); rmErr == nil {
			f, err = l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		fsx.BestEffortRemove(l.fs, path)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsx.BestEffortRemove(l.fs, path)
		return fmt.Errorf("wal: %w", err)
	}
	l.seg = next
	l.f = f
	l.size.Store(int64(len(walMagic)))
	return nil
}

// scanFile reads one log file. When fn is nil it only validates,
// returning the valid prefix length and the highest sequence seen;
// tolerateTail permits a torn final record. When fn is non-nil every
// record with seq > afterSeq is decoded and passed to it.
func (l *Log) scanFile(seg int, tolerateTail bool, afterSeq uint64, fn func(seq uint64, m *tweet.Message) error) (int64, uint64, error) {
	f, err := l.fs.Open(l.filePath(seg))
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	var maxSeq uint64
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != walMagic {
		return 0, 0, fmt.Errorf("%w: file %d: %w", ErrCorrupt, seg, errBadMagic)
	}
	offset := int64(len(walMagic))
	var hdr [recordHeaderSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return offset, maxSeq, nil
			}
			if tolerateTail {
				return offset, maxSeq, nil
			}
			return 0, 0, fmt.Errorf("%w: file %d: torn header at %d", ErrCorrupt, seg, offset)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordLen {
			if tolerateTail {
				return offset, maxSeq, nil
			}
			return 0, 0, fmt.Errorf("%w: file %d: oversized record at %d", ErrCorrupt, seg, offset)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTail {
				return offset, maxSeq, nil
			}
			return 0, 0, fmt.Errorf("%w: file %d: torn payload at %d", ErrCorrupt, seg, offset)
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			if tolerateTail {
				return offset, maxSeq, nil
			}
			return 0, 0, fmt.Errorf("%w: file %d: bad checksum at %d", ErrCorrupt, seg, offset)
		}
		seq, m, err := decodeRecord(payload)
		if err != nil {
			if tolerateTail {
				return offset, maxSeq, nil
			}
			return 0, 0, fmt.Errorf("%w: file %d: undecodable record at %d: %v", ErrCorrupt, seg, offset, err)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if fn != nil && seq > afterSeq {
			if err := fn(seq, m); err != nil {
				return 0, 0, err
			}
		}
		offset += recordHeaderSize + length
	}
}

// Replay streams every logged message with sequence > afterSeq to fn in
// log order. Call it once, after Open and before the first Append.
// afterSeq is the message count the restored checkpoint already covers.
func (l *Log) Replay(afterSeq uint64, fn func(seq uint64, m *tweet.Message) error) error {
	segs, err := l.listFiles()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for i, seg := range segs {
		if _, _, err := l.scanFile(seg, i == len(segs)-1, afterSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord appends the record payload of (seq, m) to buf: the raw
// message fields only — indicants are re-extracted by tweet.Parse on
// replay, so the parser stays the single source of truth (same contract
// as the JSONL codec).
func appendRecord(buf []byte, seq uint64, m *tweet.Message) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(m.ID))
	buf = binary.AppendVarint(buf, m.Date.UnixNano())
	buf = binary.AppendUvarint(buf, uint64(len(m.User)))
	buf = append(buf, m.User...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Text)))
	buf = append(buf, m.Text...)
	return buf
}

// decodeRecord parses one record payload back into its message.
func decodeRecord(payload []byte) (uint64, *tweet.Message, error) {
	rd := recReader{data: payload}
	seq := rd.uvarint()
	id := rd.uvarint()
	nanos := rd.varint()
	user := rd.str()
	text := rd.str()
	if rd.err != nil {
		return 0, nil, rd.err
	}
	if rd.pos != len(payload) {
		return 0, nil, errors.New("trailing bytes")
	}
	m := tweet.Parse(tweet.ID(id), user, time.Unix(0, nanos).UTC(), text)
	return seq, m, nil
}

type recReader struct {
	data []byte
	pos  int
	err  error
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = errors.New("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.err = errors.New("bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *recReader) str() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = errors.New("bad string length")
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Append encodes message m under sequence seq (the engine ordinal it
// will occupy) into the open batch; the record that fills the batch
// (SyncEvery) also writes and fsyncs it. Sequences must be appended in
// increasing order. A nil return promises nothing by itself: the
// message is durable once a Sync — this one's, a later Append's or an
// explicit one — has returned nil. An error means the whole open batch
// was dropped (see Sync).
func (l *Log) Append(seq uint64, m *tweet.Message) error {
	if l.broken != nil {
		return l.broken
	}
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: sequence %d not after %d", seq, l.lastSeq)
	}
	start := time.Now()
	at := len(l.batch)
	var hdr [recordHeaderSize]byte
	l.batch = appendRecord(append(l.batch, hdr[:]...), seq, m)
	payload := l.batch[at+recordHeaderSize:]
	binary.LittleEndian.PutUint32(l.batch[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.batch[at+4:], crc32.Checksum(payload, crcTable))
	l.encode += time.Since(start)
	l.size.Add(int64(len(l.batch) - at))
	l.lastSeq = seq
	l.pending++
	if l.pending >= l.opts.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync lands the open batch: one write, one fsync. On success every
// record appended so far is on stable storage and the synced watermark
// moves up to the last of them. If the write fails or comes up short,
// or the fsync fails, none of the batch counts: the file is cut back to
// its last synced length, the batch is dropped and LastSeq falls back
// to the synced watermark — partial bytes whose CRC mismatch would end
// replay early and silently hide every record behind them never stay
// in front of a later batch. If that repair itself fails the log is
// latched broken: Append and Truncate are refused, keeping the torn
// tail in the final file where the next Open truncates it, rather than
// sealing it where Open must fail.
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
		l.dropBatch()
		return fmt.Errorf("wal: %w", err)
	}
	l.synced.Store(l.lastSeq)
	l.batch, l.pending, l.encode = l.batch[:0], 0, 0
	return nil
}

// dropBatch forgets the open batch after a failed Sync and rewinds the
// active file to its last synced length, latching the log broken when
// it cannot.
func (l *Log) dropBatch() {
	l.size.Add(-int64(len(l.batch)))
	l.lastSeq = l.synced.Load()
	l.batch, l.pending, l.encode = l.batch[:0], 0, 0
	if err := l.f.Truncate(l.size.Load()); err != nil {
		l.broken = fmt.Errorf("wal: tail unrepaired: %w", err)
		return
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		l.broken = fmt.Errorf("wal: tail unrepaired: %w", err)
	}
}

// LastSeq returns the highest sequence number appended or recovered.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

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
	if l.broken != nil {
		return l.broken
	}
	if err := l.Sync(); err != nil {
		return err
	}
	old, err := l.listFiles()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	prev := l.f
	if err := l.startFile(); err != nil {
		// startFile left l.f/l.seg untouched: the old file is still
		// live and intact, so appends simply continue into it.
		return err
	}
	prev.Close()
	for _, seg := range old {
		if seg == l.seg {
			// Debris listed at this number was already replaced by the
			// fresh live file startFile just created; keep that one.
			continue
		}
		if err := l.fs.Remove(l.filePath(seg)); err != nil {
			// Stale files are tolerated: replay filters their records
			// by sequence. Surface the error so callers can count it.
			return fmt.Errorf("wal: remove stale file: %w", err)
		}
	}
	l.truncations.Inc()
	return nil
}

// Close syncs and closes the active file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		l.f.Close()
		l.f = nil
		return err
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
