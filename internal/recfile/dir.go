package recfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"provex/internal/fsx"
)

// MagicSize is the length of the magic every segment file opens with,
// and so the offset of its first record.
const MagicSize = 8

// Format is one caller's file layout: constants, kept as one
// package-level value, not options.
type Format struct {
	Pkg       string          // error prefix, the owning package's name
	Magic     [MagicSize]byte // first bytes of every file
	Name      string          // file-name pattern around the number, e.g. "wal-%06d.log"
	MaxRecord int             // cap on one payload, so a corrupt length cannot drive an absurd allocation
	Corrupt   error           // the owner's sentinel; every unreadable-record error wraps it
}

// Stop, returned by a RecordFunc, ends a Scan early without an error.
var Stop = errors.New("recfile: stop scan")

// errBadMagic marks a file whose header never reached the disk, as
// opposed to a damaged record.
var errBadMagic = errors.New("bad magic")

// errEmpty marks a frame with no payload: what a zero-filled tail
// reads as (length 0, and 0 is the CRC of nothing). No owner writes an
// empty record.
var errEmpty = errors.New("empty record")

// RecordFunc receives each intact record of a scan: its file, the
// offset of its frame and its payload, which it owns. Any error but
// Stop says the payload does not decode: corruption, in any file (Dir).
type RecordFunc func(seg int, off int64, payload []byte) error

// Dir is a directory of numbered segment files in one Format: one
// append-only tail, immutable sealed files behind it.
//
// Recovery rule: in the final file, a frame that a crash can leave — a
// torn header or payload, a checksum mismatch, an oversized length, an
// empty frame — is where an append was cut short: it ends the file,
// and Open truncates it away. A final file without a whole magic is
// the debris of a crash during creation and is dropped. Anything else
// is an error (Format.Corrupt) and Open changes nothing: damage in an
// earlier file, since sealed files are never legitimately half-written,
// and an intact record the owner's decoder refuses, in any file — it
// is a format the owner does not read, not a torn append, and cutting
// it off would drop every record behind it.
//
// A Dir has one owner; List, Path and Scan touch only what never
// changes after Open and are safe beside it from any goroutine.
type Dir struct {
	fs     fsx.FS
	path   string
	format *Format

	f      fsx.File // the active file, positioned at its end; nil once closed
	seg    int      // its number
	broken error    // latched by a Rewind that failed
}

// Open opens (creating if needed) the directory at path, passes every
// record of every file to fn in order, and leaves the newest file open
// for appending, its torn tail cut off. It returns that file's length.
func Open(fsys fsx.FS, path string, format *Format, fn RecordFunc) (*Dir, int64, error) {
	d := &Dir{fs: fsys, path: path, format: format}
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, 0, d.wrap(err)
	}
	segs, err := d.List()
	if err != nil {
		return nil, 0, err
	}
	if n := len(segs); n > 0 {
		first := func(int, int64, []byte) error { return Stop }
		if _, err := d.Scan(segs[n-1], 0, true, first); errors.Is(err, errBadMagic) {
			if err := fsys.Remove(d.Path(segs[n-1])); err != nil {
				return nil, 0, d.wrap(err)
			}
			segs = segs[:n-1]
		}
	}
	if len(segs) == 0 {
		if err := d.CreateNext(); err != nil {
			return nil, 0, err
		}
		return d, MagicSize, nil
	}
	var size int64
	for i, seg := range segs {
		if size, err = d.Scan(seg, 0, i == len(segs)-1, fn); err != nil {
			return nil, 0, err
		}
		d.seg = seg
	}
	f, err := fsys.OpenFile(d.Path(d.seg), os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, d.wrap(err)
	}
	if err := cut(f, size); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("%s: truncate torn tail: %w", format.Pkg, err)
	}
	d.f = f
	return d, size, nil
}

// wrap puts the owner's name in front of a filesystem error.
func (d *Dir) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", d.format.Pkg, err)
}

// Path names file n.
func (d *Dir) Path(n int) string { return filepath.Join(d.path, fmt.Sprintf(d.format.Name, n)) }

// List returns the numbers of the existing files, ascending.
func (d *Dir) List() ([]int, error) {
	names, err := d.fs.ReadDir(d.path)
	if err != nil {
		return nil, d.wrap(err)
	}
	var segs []int
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, d.format.Name, &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// Scan reads file seg from offset off — below MagicSize means from the
// top, checking the magic — hands each intact record to fn (nil only
// validates) and returns the length of the valid prefix. With
// tolerateTail the first frame a crash can leave (see Dir) ends the
// scan quietly, as the tail of the final file; without it that frame
// is an error wrapping Format.Corrupt. A record fn refuses is that
// error either way. A missing file matches fs.ErrNotExist.
func (d *Dir) Scan(seg int, off int64, tolerateTail bool, fn RecordFunc) (int64, error) {
	f, err := d.fs.Open(d.Path(seg))
	if err != nil {
		return 0, d.wrap(err)
	}
	defer f.Close()
	if off < MagicSize {
		var magic [MagicSize]byte
		if _, err := io.ReadFull(f, magic[:]); err != nil || magic != d.format.Magic {
			return 0, d.corrupt(seg, 0, errBadMagic)
		}
		off = MagicSize
	} else if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, d.wrap(err)
	}
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, err := ReadFrame(r, d.format.MaxRecord)
		if err == io.EOF {
			return off, nil
		}
		if err == nil && len(payload) == 0 {
			err = errEmpty
		}
		if err != nil {
			if tolerateTail {
				return off, nil
			}
			return 0, d.corrupt(seg, off, err)
		}
		if fn != nil {
			if err := fn(seg, off, payload); err == Stop {
				return off, nil
			} else if err != nil {
				return 0, d.corrupt(seg, off, fmt.Errorf("undecodable record (%v)", err))
			}
		}
		off += HeaderSize + int64(len(payload))
	}
}

func (d *Dir) corrupt(seg int, off int64, err error) error {
	return fmt.Errorf("%w: %s: %w at %d", d.format.Corrupt, fmt.Sprintf(d.format.Name, seg), err, off)
}

// CreateNext starts the file after the active one — exclusively,
// replacing the debris of an earlier failed attempt, its magic written
// and synced so the file itself survives a crash — and makes it the
// active file. Every failure leaves the old file active and removes the
// half-made one (or the next attempt replaces it). The caller syncs the
// old file first if it holds anything not yet durable.
func (d *Dir) CreateNext() error {
	if d.broken != nil {
		// Sealing a torn tail would turn what Open repairs into what
		// Open must reject.
		return d.broken
	}
	path := d.Path(d.seg + 1)
	create := func() (fsx.File, error) {
		return d.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	}
	f, err := create()
	if errors.Is(err, fs.ErrExist) {
		if d.fs.Remove(path) == nil {
			f, err = create()
		}
	}
	if err != nil {
		return d.wrap(err)
	}
	if _, err = f.Write(d.format.Magic[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		fsx.BestEffortRemove(d.fs, path)
		return d.wrap(err)
	}
	if d.f != nil {
		// Its bytes are synced or about to be deleted; a close error
		// here can lose nothing.
		d.f.Close()
	}
	d.f, d.seg = f, d.seg+1
	return nil
}

// File is the active file; appends go straight to it. Nil once closed.
func (d *Dir) File() fsx.File { return d.f }

// Seg is the active file's number.
func (d *Dir) Seg() int { return d.seg }

// Rewind cuts the active file back to size after an append failed, so
// the next one starts at a clean record boundary and not behind a
// partial record whose checksum would end every later scan early. If
// the cut itself fails the Dir is latched broken: CreateNext refuses,
// which keeps the torn tail in the final file where Open truncates it.
func (d *Dir) Rewind(size int64) {
	if d.f == nil {
		return
	}
	if err := cut(d.f, size); err != nil && d.broken == nil {
		d.broken = fmt.Errorf("%s: tail unrepaired: %w", d.format.Pkg, err)
	}
}

// Broken is non-nil once a Rewind failed; the owner refuses appends
// until the directory is reopened.
func (d *Dir) Broken() error { return d.broken }

func cut(f fsx.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	_, err := f.Seek(0, io.SeekEnd)
	return err
}

// Sync flushes the active file to stable storage.
func (d *Dir) Sync() error {
	if d.f == nil {
		return nil
	}
	return d.wrap(d.f.Sync())
}

// RemoveBefore deletes every file numbered below n — the sealed files a
// truncation or a compaction has made redundant. One that outlives a
// failure here costs only space: it scans first, and loses to what
// comes after.
func (d *Dir) RemoveBefore(n int) error {
	segs, err := d.List()
	for _, seg := range segs {
		if err == nil && seg < n {
			err = d.wrap(d.fs.Remove(d.Path(seg)))
		}
	}
	return err
}

// Close closes the active file without syncing it.
func (d *Dir) Close() error {
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return d.wrap(err)
}
