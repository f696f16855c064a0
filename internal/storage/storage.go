// Package storage is the on-disk bundle back-end of the paper's
// framework (Figure 4): finished bundles that no longer receive updates
// are flushed out of the in-memory pool and kept durably for later
// retrieval and analysis.
//
// The files are a recfile.Dir of append-only segments (seg-000001.bls,
// ...; magic, CRC32C frames, torn-tail recovery — DESIGN.md §2d has the
// table), one encoded bundle per record. What this package adds on top
// of that layer: an in-memory directory mapping bundle ID to its newest
// record position, rebuilt by Open from a scan of every segment;
// re-flushing a bundle supersedes the previous record (last write
// wins); rotation at a size threshold; and Compact, which rewrites the
// live records into fresh segments and drops the dead weight.
//
// All filesystem access goes through an fsx.FS (Options.FS), so every
// failure path — torn write, ENOSPC, fsync error, frozen image — is
// testable with fsx's fault injector; production uses the real
// filesystem by default.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/recfile"
)

// DefaultSegmentSize rotates segments at 8 MiB, large enough to
// amortise file overhead, small enough for cheap compaction.
const DefaultSegmentSize = 8 << 20

// ErrNotFound reports a bundle ID absent from the store.
var ErrNotFound = errors.New("storage: bundle not found")

// ErrCorrupt reports an unreadable sealed segment.
var ErrCorrupt = errors.New("storage: corrupt segment")

// segFormat is the on-disk layout of a store directory.
var segFormat = recfile.Format{
	Pkg:       "storage",
	Magic:     [8]byte{'P', 'R', 'O', 'V', 'S', 'E', 'G', '1'},
	Name:      "seg-%06d.bls",
	MaxRecord: 64 << 20,
	Corrupt:   ErrCorrupt,
}

// Options tune a Store.
type Options struct {
	// SegmentSize is the rotation threshold in bytes; 0 means
	// DefaultSegmentSize.
	SegmentSize int64
	// SyncEvery fsyncs the active segment after every n appends;
	// 0 disables explicit fsync (the OS flushes on its schedule, and
	// Sync/Close force it).
	SyncEvery int
	// FS is the filesystem the store lives on; nil uses the real one.
	// Tests substitute fsx.MemFS/fsx.FaultFS to exercise crash and
	// error paths.
	FS fsx.FS
}

// recordPos locates a record inside a segment.
type recordPos struct {
	seg    int
	offset int64
	length int64 // payload length
}

// size is the record's footprint in its segment.
func (p recordPos) size() int64 { return recfile.HeaderSize + p.length }

// Store is the bundle store. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	opts Options

	// segs is the segment files; its active file is the append target.
	// Set once by Open; everything but Path is called under mu. A failed
	// tail repair latches it broken: the active segment's on-disk state no
	// longer matches activeSize, so appends are refused until the store is
	// reopened (recovery truncates the torn tail). Reads stay available.
	segs       *recfile.Dir
	activeSize int64  // guarded by mu
	appends    int    // guarded by mu
	frame      []byte // the record being written, reused; guarded by mu

	index     map[bundle.ID]recordPos // guarded by mu
	deadBytes int64                   // superseded record bytes, Compact trigger signal; guarded by mu
	liveBytes int64                   // guarded by mu
}

// Open opens (creating if needed) the store at dir and replays existing
// segments to rebuild the directory.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	opts.FS = fsx.Default(opts.FS)
	s := &Store{opts: opts, index: make(map[bundle.ID]recordPos)}
	// Open has not published the store yet, so there is no contention —
	// but recovery fills the mu-guarded fields, so it takes the lock like
	// any other writer.
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	s.segs, s.activeSize, err = recfile.Open(opts.FS, dir, &segFormat, func(seg int, off int64, payload []byte) error {
		b, err := bundle.Unmarshal(payload)
		if err != nil {
			return err
		}
		s.indexRecordLocked(b.ID(), recordPos{seg: seg, offset: off, length: int64(len(payload))})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// indexRecordLocked records the newest position of id, tracking dead
// bytes of any superseded record. Caller holds s.mu.
func (s *Store) indexRecordLocked(id bundle.ID, pos recordPos) {
	if old, ok := s.index[id]; ok {
		s.deadBytes += old.size()
		s.liveBytes -= old.size()
	}
	s.index[id] = pos
	s.liveBytes += pos.size()
}

// appendLocked frames payload and lands it in the active segment with
// one write, sealing a full segment first (the old one is synced before
// the next is started). Every failure leaves the active segment at its
// last good length, so the caller may simply try again — or latches the
// directory broken when that repair fails too. Caller holds s.mu.
func (s *Store) appendLocked(payload []byte) (recordPos, error) {
	if err := s.segs.Broken(); err != nil {
		return recordPos{}, err
	}
	if s.segs.File() == nil || s.activeSize >= s.opts.SegmentSize {
		if err := s.rotateLocked(); err != nil {
			return recordPos{}, err
		}
	}
	s.frame = append(recfile.BeginFrame(s.frame[:0]), payload...)
	recfile.EndFrame(s.frame, 0, recfile.Castagnoli)
	if _, err := s.segs.File().Write(s.frame); err != nil {
		// Without the rewind a retried Put would start behind a dangling
		// partial record.
		s.segs.Rewind(s.activeSize)
		return recordPos{}, fmt.Errorf("storage: %w", err)
	}
	pos := recordPos{seg: s.segs.Seg(), offset: s.activeSize, length: int64(len(payload))}
	s.activeSize += pos.size()
	return pos, nil
}

// rotateLocked seals the active segment and starts the next one. Caller
// holds s.mu.
func (s *Store) rotateLocked() error {
	if err := s.segs.Sync(); err != nil {
		return err
	}
	if err := s.segs.CreateNext(); err != nil {
		return err
	}
	s.activeSize = recfile.MagicSize
	return nil
}

// Put appends b to the store. A bundle already present is superseded by
// the new record. A failed Put leaves the store exactly as it was, so
// the caller may retry (the engine's flush retry queue does).
func (s *Store) Put(b *bundle.Bundle) error {
	payload := b.Marshal()
	s.mu.Lock()
	defer s.mu.Unlock()
	pos, err := s.appendLocked(payload)
	if err != nil {
		return err
	}
	s.indexRecordLocked(b.ID(), pos)
	s.appends++
	if s.opts.SyncEvery > 0 && s.appends%s.opts.SyncEvery == 0 {
		return s.segs.Sync()
	}
	return nil
}

// Get loads bundle id.
func (s *Store) Get(id bundle.ID) (*bundle.Bundle, error) {
	s.mu.Lock()
	pos, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return s.readAt(pos)
}

func (s *Store) readAt(pos recordPos) (*bundle.Bundle, error) {
	// The active segment is written through its own handle; reads open
	// theirs so readers never disturb the append cursor.
	f, err := s.opts.FS.Open(s.segs.Path(pos.seg))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	frame := io.NewSectionReader(f, pos.offset, pos.size())
	payload, err := recfile.ReadFrame(frame, recfile.Castagnoli, int(pos.length))
	if err != nil {
		return nil, fmt.Errorf("%w: %v for segment %d offset %d", ErrCorrupt, err, pos.seg, pos.offset)
	}
	b, err := bundle.Unmarshal(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, nil
}

// Has reports whether id is stored.
func (s *Store) Has(id bundle.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

// Count returns the number of live bundles.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// LiveBytes and DeadBytes report record accounting; their ratio drives
// Compact policy.
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// DeadBytes returns superseded record bytes awaiting compaction.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadBytes
}

// IDs returns every stored bundle ID, ascending.
func (s *Store) IDs() []bundle.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idsLocked()
}

func (s *Store) idsLocked() []bundle.ID {
	out := make([]bundle.ID, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Scan calls fn for every live bundle in ascending ID order, stopping
// at the first error.
func (s *Store) Scan(fn func(*bundle.Bundle) error) error {
	for _, id := range s.IDs() {
		b, err := s.Get(id)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites live records into fresh segments and deletes old
// ones, reclaiming dead bytes. Put and Get wait for its duration. The
// new chain is built behind the old one, and the directory moves over
// to it only once it is whole and synced: if anything fails before
// that, the store answers exactly as before the call and accepts Put —
// behind whatever copies the new chain already holds, so that none of
// them can replay after a record newer than itself.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Even an empty store needs a segment to append to; and sealing the
	// old chain syncs it, which a failure below relies on: the directory
	// still points into it then.
	last := s.segs.Seg()
	if err := s.rotateLocked(); err != nil {
		return err
	}
	index, live := make(map[bundle.ID]recordPos, len(s.index)), int64(0)
	for _, id := range s.idsLocked() {
		b, err := s.readAt(s.index[id])
		if err != nil {
			return err
		}
		pos, err := s.appendLocked(b.Marshal())
		if err != nil {
			return err
		}
		index[id] = pos
		live += pos.size()
	}
	if err := s.segs.Sync(); err != nil {
		return err
	}
	s.index, s.liveBytes, s.deadBytes = index, live, 0
	// The old files are dead weight from here; one that outlives a crash
	// or a failed remove costs only space — it replays first and loses
	// to the new records.
	return s.segs.RemoveBefore(last + 1)
}

// Sync flushes the active segment to stable storage. The durability
// layer calls it before a checkpoint truncates the write-ahead log, so
// no flushed bundle can be lost once its source messages are.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segs.Sync()
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.segs.Sync(); err != nil {
		return err
	}
	return s.segs.Close()
}
