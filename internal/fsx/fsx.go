// Package fsx abstracts the filesystem operations the durability layer
// depends on (segment store, write-ahead log, checkpoints) behind a
// small interface, so every failure path the real world can produce —
// torn writes, ENOSPC mid-append, a failing fsync, a crash that
// freezes the on-disk image — is reproducible in tests.
//
// Three implementations:
//
//   - OS: the real filesystem (the production default);
//   - MemFS: an in-memory filesystem that distinguishes written from
//     synced bytes and can simulate a crash (Crash reverts every file
//     to its last-synced image);
//   - FaultFS: a wrapper that injects failures into another FS on the
//     Nth matching operation (error, short/torn write, frozen image).
//
// Concurrency contract: MemFS and FaultFS are internally locked and
// safe for concurrent use from multiple goroutines; OS delegates to
// package os and inherits its guarantees. Individual File handles are
// NOT synchronized — like *os.File, a handle belongs to one goroutine
// at a time (the durability layer's single-writer discipline upholds
// this).
//
// Durability contract: bytes written but not Synced are volatile —
// MemFS.Crash discards them, modelling a power loss with a dirty page
// cache. Rename is modelled as atomic and immediately durable — the
// journalled-filesystem ordering the atomic-checkpoint pattern
// (write tmp, sync, rename) relies on.
package fsx

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the durability layer uses. Writes go
// through the current offset (or the end when the file was opened with
// os.O_APPEND); ReadAt/WriteAt are offset-addressed and do not move it.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer

	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes written data to stable storage. Data not yet synced
	// is lost by a crash (see MemFS.Crash).
	Sync() error
	// Truncate changes the file size.
	Truncate(size int64) error
}

// FS is the filesystem surface of the durability layer. All paths are
// interpreted like package os does.
type FS interface {
	// OpenFile is the general open call, mirroring os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// Create truncates or creates a file for writing.
	Create(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists the names (not paths) of directory entries,
	// sorted ascending.
	ReadDir(name string) ([]string, error)
}

// OS is the real filesystem.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]string, error) {
	entries, err := os.ReadDir(name)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// BestEffortRemove removes name and deliberately ignores failure. It
// is for clearing debris on an already-failing path — a temp
// checkpoint after a failed write, a stillborn segment after a failed
// header sync — where the original error is what the caller reports
// and every recovery path already tolerates the leftover file
// (stillborn segments and .tmp files are detected and replaced on the
// next open). Using this helper instead of discarding the error inline
// keeps the durabilityerr analyzer's contract meaningful: an ignored
// removal is always a named, documented decision.
func BestEffortRemove(f FS, name string) {
	//provlint:ignore durabilityerr best-effort debris cleanup; the caller reports the original failure and recovery tolerates leftovers
	_ = f.Remove(name)
}

// WriteAtomic replaces the file at path with what write produces, all
// or nothing: the bytes go to a temporary sibling, which is synced,
// closed and renamed over path, so a crash or a failure at any point
// leaves either the old file or the new one — never a torn hybrid. An
// error from write is returned as is; on every failure the sibling is
// removed, best effort.
func WriteAtomic(f FS, path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	file, err := f.Create(tmp)
	if err != nil {
		return fmt.Errorf("fsx: replace %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			BestEffortRemove(f, tmp)
		}
	}()
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	err = file.Sync()
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = f.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("fsx: replace %s: %w", path, err)
	}
	return nil
}

// Default returns f, or the real filesystem when f is nil — the
// convention every Options struct in the durability layer follows.
func Default(f FS) FS {
	if f == nil {
		return OS{}
	}
	return f
}

// notExist builds the canonical does-not-exist error for path, matching
// errors.Is(err, fs.ErrNotExist) like package os.
func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// exist builds the canonical already-exists error for path.
func exist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrExist}
}

// clean normalises a path so MemFS lookups are consistent across
// spellings ("dir//f", "./dir/f", ...).
func clean(p string) string { return filepath.Clean(p) }
