package fsx

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// MemFS is an in-memory filesystem with crash semantics: every file
// tracks both its written content and its last-synced image, and
// Crash() discards everything that was never fsynced — files revert to
// their synced image, and files that were never synced at all disappear
// (their directory entry was never made durable). This is the
// pessimistic model a torture test wants: nothing survives a crash
// unless the code under test explicitly synced it.
//
// Rename is modelled as atomic and immediately durable (the layer above
// always syncs file content before renaming, which is the journalled-
// filesystem ordering the atomic-checkpoint pattern relies on).
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile // guarded by mu
	dirs  map[string]bool     // guarded by mu
}

type memFile struct {
	mu     sync.Mutex
	data   []byte // current (volatile) content; guarded by mu
	synced []byte // durable image; nil = never synced; guarded by mu
}

// NewMem returns an empty in-memory filesystem with a root directory.
func NewMem() *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true, "/": true},
	}
}

// Crash simulates a power loss: every file reverts to its last-synced
// image, and never-synced files are removed entirely.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		f.mu.Lock()
		if f.synced == nil {
			f.mu.Unlock()
			delete(m.files, name)
			continue
		}
		f.data = append([]byte(nil), f.synced...)
		f.mu.Unlock()
	}
}

// ReadFile returns a copy of the current content of name — test helper.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	name = clean(name)
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, notExist("read", name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...), nil
}

// WriteFile replaces the content of name (creating it) and marks it
// synced — test helper for building durable fixtures and flipping bits.
func (m *MemFS) WriteFile(name string, data []byte) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Dir(name)] = true
	m.files[name] = &memFile{
		data:   append([]byte(nil), data...),
		synced: append([]byte(nil), data...),
	}
}

// dirExistsLocked reports whether dir exists. Caller holds m.mu.
func (m *MemFS) dirExistsLocked(dir string) bool {
	return m.dirs[dir] || dir == "." || dir == "/"
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, exist("open", name)
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok:
		if !m.dirExistsLocked(filepath.Dir(name)) {
			return nil, notExist("open", name)
		}
		f = &memFile{}
		m.files[name] = f
	}
	f.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		f.data = nil
	}
	off := int64(0)
	f.mu.Unlock()
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	return &memHandle{fs: m, name: name, f: f, off: off, append: flag&os.O_APPEND != 0, writable: writable}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	return m.OpenFile(name, os.O_RDONLY, 0)
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	return m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Rename implements FS.
func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	if !m.dirExistsLocked(filepath.Dir(newpath)) {
		return notExist("rename", newpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// MkdirAll implements FS. Like os.MkdirAll it fails with ENOTDIR,
// naming the file, when path or one of its parents is a file.
func (m *MemFS) MkdirAll(path string, _ os.FileMode) error {
	path = clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; ; p = filepath.Dir(p) {
		if _, ok := m.files[p]; ok {
			return &fs.PathError{Op: "mkdir", Path: p, Err: syscall.ENOTDIR}
		}
		if p == filepath.Dir(p) {
			break
		}
	}
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(name string) ([]string, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(name) {
		return nil, notExist("readdir", name)
	}
	var names []string
	prefix := name + string(filepath.Separator)
	if name == "." {
		prefix = ""
	}
	seen := map[string]bool{}
	for p := range m.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if i := strings.IndexByte(rest, filepath.Separator); i >= 0 {
			rest = rest[:i] // nested entry: report the subdirectory once
		}
		if rest != "" && !seen[rest] {
			seen[rest] = true
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is one open descriptor onto a memFile, with its own offset.
type memHandle struct {
	fs       *MemFS
	name     string
	f        *memFile
	off      int64
	append   bool
	writable bool
	closed   bool
}

// Name implements File.
func (h *memHandle) Name() string { return h.name }

// Read implements io.Reader.
func (h *memHandle) Read(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Write implements io.Writer.
func (h *memHandle) Write(p []byte) (int, error) {
	if !h.writable {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrPermission}
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.append {
		h.off = int64(len(h.f.data))
	}
	return h.writeAtLocked(p, h.off, true), nil
}

// WriteAt implements io.WriterAt.
func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	if !h.writable {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrPermission}
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.writeAtLocked(p, off, false), nil
}

// writeAtLocked writes p at off, growing the file as needed, moving the
// handle offset when cursor is set. Caller holds h.f.mu.
func (h *memHandle) writeAtLocked(p []byte, off int64, cursor bool) int {
	if grow := off + int64(len(p)) - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[off:], p)
	if cursor {
		h.off = off + int64(len(p))
	}
	return len(p)
}

// Seek implements io.Seeker.
func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.f.data)) + offset
	default:
		return 0, fmt.Errorf("fsx: bad whence %d", whence)
	}
	if h.off < 0 {
		return 0, fmt.Errorf("fsx: negative seek offset")
	}
	return h.off, nil
}

// Sync implements File: the current content becomes the durable image.
func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.synced = append([]byte(nil), h.f.data...)
	return nil
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	switch {
	case size < 0:
		return fmt.Errorf("fsx: negative truncate")
	case size <= int64(len(h.f.data)):
		h.f.data = h.f.data[:size]
	default:
		h.f.data = append(h.f.data, make([]byte, size-int64(len(h.f.data)))...)
	}
	return nil
}

// Close implements io.Closer.
func (h *memHandle) Close() error {
	h.closed = true
	return nil
}
