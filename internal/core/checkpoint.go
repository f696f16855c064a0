package core

// Engine checkpointing: serialise the live in-memory state (bundle
// pool, simulated clock, counters) so a stream processor can restart
// without re-ingesting the stream — the "stability requirement of
// provenance discovery" of the paper's Section V. The summary index is
// NOT stored: it is a deterministic function of the pool's bundles and
// is rebuilt on restore, which keeps checkpoints small and immune to
// index-format drift.
//
// Format v3: the magic "PROVCKP1" and a version byte (3), then
// recfile frames (CRC32C) and nothing after them, so every byte past
// the version is checksummed:
//
//	header frame: clock unix-nanos (varint; an engine that has seen no
//	  message stores ckptNoDate); then uvarints — engine
//	  counters: messages, edges, conn counts [5]; pool counters: nextID,
//	  created, refines, deletedTiny, flushedClosed, flushedRanked,
//	  inserts; flush counters: retries, dropped; the live-bundle count
//	  and the parked count
//	one frame per live bundle: bundle.Marshal
//	one frame per parked flush-retry entry: uvarint attempts, then
//	  bundle.Marshal
//
// The parked section exists so degraded mode survives a restart: a
// bundle evicted from the pool whose flush failed lives only in the
// retry queue, and the WAL that could rebuild it is truncated right
// after a checkpoint — so the checkpoint must carry it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/pool"
	"provex/internal/recfile"
	"provex/internal/storage"
	"provex/internal/stream"
)

var ckptMagic = [8]byte{'P', 'R', 'O', 'V', 'C', 'K', 'P', '1'}

const ckptVersion = 3

// maxCkptRecord caps one frame so a corrupt length field cannot drive
// an absurd allocation during restore.
const maxCkptRecord = 64 << 20

// ckptNoDate is the clock of an engine that has seen no message: the
// value v3 has always stored for it, the zero time.Time's UnixNano.
var ckptNoDate = time.Time{}.UnixNano()

// clockToCkpt is the header's clock field for now.
func clockToCkpt(now int64) int64 {
	if now == stream.NoDate {
		return ckptNoDate
	}
	return now
}

// ErrBadCheckpoint reports an unreadable or corrupt checkpoint stream.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// writeCheckpoint serialises the engine's in-memory state to w.
// The engine must not ingest concurrently.
func (e *Engine) writeCheckpoint(w io.Writer) error {
	// bufio.Writer keeps its first write error and returns it from every
	// later call, so only Flush's is checked.
	bw := bufio.NewWriterSize(w, 1<<16)
	_, _ = bw.Write(ckptMagic[:])
	_ = bw.WriteByte(ckptVersion)
	// frame closes the frame buf holds, writes it and opens the next.
	frame := func(buf []byte) []byte {
		recfile.EndFrame(buf, 0, recfile.Castagnoli)
		_, _ = bw.Write(buf)
		return recfile.BeginFrame(buf[:0])
	}

	buf := recfile.BeginFrame(nil)
	buf = binary.AppendVarint(buf, clockToCkpt(e.clock.Now()))
	buf = binary.AppendUvarint(buf, uint64(e.messages.Value()))
	buf = binary.AppendUvarint(buf, uint64(e.edges.Value()))
	for i := range e.connCounts {
		buf = binary.AppendUvarint(buf, uint64(e.connCounts[i].Value()))
	}
	ps := e.pool.Stats()
	buf = binary.AppendUvarint(buf, uint64(e.pool.NextID()))
	buf = binary.AppendUvarint(buf, uint64(ps.Created))
	buf = binary.AppendUvarint(buf, uint64(ps.Refines))
	buf = binary.AppendUvarint(buf, uint64(ps.DeletedTiny))
	buf = binary.AppendUvarint(buf, uint64(ps.FlushedClosed))
	buf = binary.AppendUvarint(buf, uint64(ps.FlushedRanked))
	buf = binary.AppendUvarint(buf, uint64(e.pool.Inserts()))
	buf = binary.AppendUvarint(buf, uint64(e.flushRetries.Value()))
	buf = binary.AppendUvarint(buf, uint64(e.flushDropped.Value()))
	buf = binary.AppendUvarint(buf, uint64(e.pool.Len()))
	buf = binary.AppendUvarint(buf, uint64(len(e.retryq)))
	buf = frame(buf)

	e.pool.All(func(b *bundle.Bundle) {
		buf = frame(append(buf, b.Marshal()...))
	})
	// Parked flush-retry entries: bundles already evicted from the pool
	// that still await a successful flush.
	for _, r := range e.retryq {
		buf = frame(append(binary.AppendUvarint(buf, uint64(r.attempts)), r.b.Marshal()...))
	}

	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// restoreCheckpoint rebuilds an engine from a checkpoint written by
// writeCheckpoint. cfg, store and onEdge play the same roles as in New
// and must match the original engine's configuration for the restored
// behaviour to be equivalent (the checkpoint carries state, not
// configuration). The summary index is reconstructed from the restored
// bundles; stage timers restart from zero (they measure the current
// process, not the stream's history); onEdge is not replayed for
// historical edges.
func restoreCheckpoint(cfg Config, store *storage.Store, onEdge EdgeFunc, r io.Reader) (*Engine, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: no version", ErrBadCheckpoint)
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, version)
	}
	// frame reads the i-th frame of a section: the end of the file is
	// damage wherever a frame is due.
	frame := func(what string, i uint64) ([]byte, error) {
		p, err := recfile.ReadFrame(br, recfile.Castagnoli, maxCkptRecord)
		if err != nil {
			return nil, fmt.Errorf("%w: %s %d: %v", ErrBadCheckpoint, what, i, err)
		}
		return p, nil
	}

	p, err := frame("header", 0)
	if err != nil {
		return nil, err
	}
	c := recfile.NewCursor(p)
	clockNanos := c.Varint()
	messages, edges := c.Uvarint(), c.Uvarint()
	var conns [5]uint64
	for i := range conns {
		conns[i] = c.Uvarint()
	}
	nextID, created, refines := c.Uvarint(), c.Uvarint(), c.Uvarint()
	deletedTiny, flushedClosed, flushedRanked := c.Uvarint(), c.Uvarint(), c.Uvarint()
	inserts, flushRetries, flushDropped := c.Uvarint(), c.Uvarint(), c.Uvarint()
	live, parked := c.Uvarint(), c.Uvarint()
	if c.Err() != nil || c.Rest() != 0 {
		return nil, fmt.Errorf("%w: malformed header", ErrBadCheckpoint)
	}

	e := New(cfg, store, onEdge)
	if clockNanos != ckptNoDate {
		e.clock.AdvanceTo(clockNanos)
	}
	e.messages.Add(int64(messages))
	e.edges.Add(int64(edges))
	for i := range conns {
		e.connCounts[i].Add(int64(conns[i]))
	}
	e.pool.SetStats(pool.Stats{
		Created:       int64(created),
		Refines:       int64(refines),
		DeletedTiny:   int64(deletedTiny),
		FlushedClosed: int64(flushedClosed),
		FlushedRanked: int64(flushedRanked),
	})
	e.pool.SetInserts(int(inserts))
	e.flushRetries.Add(int64(flushRetries))
	e.flushDropped.Add(int64(flushDropped))

	for i := uint64(0); i < live; i++ {
		p, err := frame("bundle", i)
		if err != nil {
			return nil, err
		}
		b, err := bundle.Unmarshal(p)
		if err != nil {
			return nil, fmt.Errorf("%w: bundle %d: %v", ErrBadCheckpoint, i, err)
		}
		if e.pool.Get(b.ID()) != nil {
			return nil, fmt.Errorf("%w: bundle %d: repeated bundle ID %d", ErrBadCheckpoint, i, b.ID())
		}
		e.pool.Adopt(b)
		// Rebuild summary-index postings from the bundle's messages.
		for _, n := range b.Nodes() {
			e.index.Observe(b.ID(), n.Doc)
		}
	}
	e.pool.SetNextID(bundle.ID(nextID))

	// Parked flush-retry entries: re-queued as immediately due. They were
	// already Forgotten from the summary index when first evicted, so
	// they rejoin the retry queue only — not the pool or index.
	for i := uint64(0); i < parked; i++ {
		p, err := frame("parked", i)
		if err != nil {
			return nil, err
		}
		c := recfile.NewCursor(p)
		attempts := c.Uvarint()
		if c.Err() != nil {
			return nil, fmt.Errorf("%w: parked %d: %v", ErrBadCheckpoint, i, c.Err())
		}
		b, err := bundle.Unmarshal(p[len(p)-c.Rest():])
		if err != nil {
			return nil, fmt.Errorf("%w: parked %d: %v", ErrBadCheckpoint, i, err)
		}
		e.retryq = append(e.retryq, flushRetry{b: b, attempts: int(attempts)})
	}

	// Detect trailing garbage (an appended or doubled checkpoint).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data", ErrBadCheckpoint)
	}
	return e, nil
}

// SaveCheckpoint atomically writes the engine's checkpoint to path on
// fsys (fsx.WriteAtomic), so a crash at any point leaves either the old
// checkpoint or the new one — never a torn hybrid.
func (e *Engine) SaveCheckpoint(fsys fsx.FS, path string) error {
	return fsx.WriteAtomic(fsx.Default(fsys), path, e.writeCheckpoint)
}

// LoadCheckpoint restores an engine from the checkpoint file at path on
// fsys. A missing file is reported as-is (test with errors.Is against
// io/fs.ErrNotExist) so callers can fall back to a fresh engine.
func LoadCheckpoint(cfg Config, store *storage.Store, onEdge EdgeFunc, fsys fsx.FS, path string) (*Engine, error) {
	fsys = fsx.Default(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	defer f.Close()
	return restoreCheckpoint(cfg, store, onEdge, f)
}
