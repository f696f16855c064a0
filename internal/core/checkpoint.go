package core

// Engine checkpointing: serialise the live in-memory state (bundle
// pool, simulated clock, counters) so a stream processor can restart
// without re-ingesting the stream — the "stability requirement of
// provenance discovery" of the paper's Section V. The summary index is
// NOT stored: it is a deterministic function of the pool's bundles and
// is rebuilt on restore, which keeps checkpoints small and immune to
// index-format drift.
//
// Format v2 (little-endian, varint-coded):
//
//	magic "PROVCKP1"
//	version byte (2)
//	clock unix-nanos (varint)
//	engine counters: messages, edges, conn counts [5]
//	pool counters: nextID, created, refines, deletedTiny,
//	               flushedClosed, flushedRanked, inserts, live count
//	flush counters: retries, dropped
//	per live bundle: payload length, CRC32C, payload (bundle.Marshal)
//	parked count, then per parked flush-retry entry: attempts,
//	  payload length, CRC32C, payload
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
	"hash/crc32"
	"io"
	"io/fs"
	"time"

	"provex/internal/bundle"
	"provex/internal/fsx"
	"provex/internal/pool"
	"provex/internal/recfile"
	"provex/internal/storage"
	"provex/internal/sumindex"
)

var ckptMagic = [8]byte{'P', 'R', 'O', 'V', 'C', 'K', 'P', '1'}

const ckptVersion = 2

// maxCkptRecord caps one serialised bundle so a corrupt length field
// cannot drive an absurd allocation during restore.
const maxCkptRecord = 64 << 20

// ErrBadCheckpoint reports an unreadable or corrupt checkpoint stream.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// writeCheckpoint serialises the engine's in-memory state to w.
// The engine must not ingest concurrently.
func (e *Engine) writeCheckpoint(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := bw.WriteByte(ckptVersion); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	var hdr []byte
	hdr = binary.AppendVarint(hdr, e.clock.Now().UnixNano())
	hdr = binary.AppendUvarint(hdr, uint64(e.messages.Value()))
	hdr = binary.AppendUvarint(hdr, uint64(e.edges.Value()))
	for i := range e.connCounts {
		hdr = binary.AppendUvarint(hdr, uint64(e.connCounts[i].Value()))
	}
	ps := e.pool.Stats()
	hdr = binary.AppendUvarint(hdr, uint64(e.pool.NextID()))
	hdr = binary.AppendUvarint(hdr, uint64(ps.Created))
	hdr = binary.AppendUvarint(hdr, uint64(ps.Refines))
	hdr = binary.AppendUvarint(hdr, uint64(ps.DeletedTiny))
	hdr = binary.AppendUvarint(hdr, uint64(ps.FlushedClosed))
	hdr = binary.AppendUvarint(hdr, uint64(ps.FlushedRanked))
	hdr = binary.AppendUvarint(hdr, uint64(e.pool.Inserts()))
	hdr = binary.AppendUvarint(hdr, uint64(e.pool.Len()))
	hdr = binary.AppendUvarint(hdr, uint64(e.flushRetries.Value()))
	hdr = binary.AppendUvarint(hdr, uint64(e.flushDropped.Value()))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}

	writeRec := func(payload []byte) error {
		var rec []byte
		rec = binary.AppendUvarint(rec, uint64(len(payload)))
		rec = binary.AppendUvarint(rec, uint64(crc32.Checksum(payload, recfile.Castagnoli)))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}

	var werr error
	e.pool.All(func(b *bundle.Bundle) {
		if werr != nil {
			return
		}
		werr = writeRec(b.Marshal())
	})
	if werr != nil {
		return fmt.Errorf("core: checkpoint: %w", werr)
	}

	// Parked flush-retry entries: bundles already evicted from the pool
	// that still await a successful flush.
	var parked []byte
	parked = binary.AppendUvarint(parked, uint64(len(e.retryq)))
	if _, err := bw.Write(parked); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	for _, r := range e.retryq {
		var att []byte
		att = binary.AppendUvarint(att, uint64(r.attempts))
		if _, err := bw.Write(att); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
		if err := writeRec(r.b.Marshal()); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
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
	if err != nil || version != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadCheckpoint)
	}

	clockNanos, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadCheckpoint)
	}
	readU := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = binary.ReadUvarint(br)
		return v
	}
	messages := readU()
	edges := readU()
	var conns [5]uint64
	for i := range conns {
		conns[i] = readU()
	}
	nextID := readU()
	created := readU()
	refines := readU()
	deletedTiny := readU()
	flushedClosed := readU()
	flushedRanked := readU()
	inserts := readU()
	bundleCount := readU()
	flushRetries := readU()
	flushDropped := readU()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadCheckpoint)
	}

	e := New(cfg, store, onEdge)
	e.clock.AdvanceTo(time.Unix(0, clockNanos).UTC())
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

	readRec := func(what string, i uint64) (*bundle.Bundle, error) {
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at %s %d", ErrBadCheckpoint, what, i)
		}
		if length > maxCkptRecord {
			return nil, fmt.Errorf("%w: %s %d: absurd length %d", ErrBadCheckpoint, what, i, length)
		}
		wantCRC, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at %s %d", ErrBadCheckpoint, what, i)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated at %s %d", ErrBadCheckpoint, what, i)
		}
		if crc32.Checksum(payload, recfile.Castagnoli) != uint32(wantCRC) {
			return nil, fmt.Errorf("%w: checksum mismatch at %s %d", ErrBadCheckpoint, what, i)
		}
		b, err := bundle.Unmarshal(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %s %d: %v", ErrBadCheckpoint, what, i, err)
		}
		return b, nil
	}

	for i := uint64(0); i < bundleCount; i++ {
		b, err := readRec("bundle", i)
		if err != nil {
			return nil, err
		}
		e.pool.Adopt(b)
		// Rebuild summary-index postings from the bundle's messages.
		for _, n := range b.Nodes() {
			e.index.Observe(sumindex.BundleID(b.ID()), n.Doc)
		}
	}
	e.pool.SetNextID(bundle.ID(nextID))

	// Parked flush-retry entries: re-queued as immediately due. They were
	// already Forgotten from the summary index when first evicted, so
	// they rejoin the retry queue only — not the pool or index.
	parkedCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated parked section", ErrBadCheckpoint)
	}
	for i := uint64(0); i < parkedCount; i++ {
		attempts, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated at parked %d", ErrBadCheckpoint, i)
		}
		b, err := readRec("parked", i)
		if err != nil {
			return nil, err
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
