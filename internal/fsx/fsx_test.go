package fsx

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"strings"
	"syscall"
	"testing"
)

func TestMemFSBasicRoundtrip(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("a/b/x.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := m.Open("a/b/x.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("content = %q", got)
	}
	var at [5]byte
	if _, err := g.ReadAt(at[:], 6); err != nil {
		t.Fatal(err)
	}
	if string(at[:]) != "world" {
		t.Fatalf("ReadAt = %q", at)
	}

	names, err := m.ReadDir("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "x.dat" {
		t.Fatalf("ReadDir = %v", names)
	}

	if _, err := m.Open("a/b/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v", err)
	}
	if _, err := m.OpenFile("a/b/x.dat", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("O_EXCL on existing = %v", err)
	}
}

func TestMemFSCrashLosesUnsynced(t *testing.T) {
	m := NewMem()
	f, err := m.Create("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable|"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("volatile"))
	// Never synced after the second write.
	m.Crash()

	got, err := m.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable|" {
		t.Fatalf("after crash content = %q, want synced prefix only", got)
	}
}

func TestMemFSCrashRemovesNeverSyncedFiles(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("never-synced.tmp")
	f.Write([]byte("gone"))
	f.Close()
	m.Crash()
	if _, err := m.ReadFile("never-synced.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("never-synced file survived crash: err=%v", err)
	}
}

func TestMemFSRenameReplaces(t *testing.T) {
	m := NewMem()
	m.WriteFile("ckpt", []byte("old"))
	m.WriteFile("ckpt.tmp", []byte("new"))
	if err := m.Rename("ckpt.tmp", "ckpt"); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile("ckpt")
	if string(got) != "new" {
		t.Fatalf("after rename = %q", got)
	}
	if _, err := m.ReadFile("ckpt.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("source survived rename: %v", err)
	}
}

func TestMemFSAppendMode(t *testing.T) {
	m := NewMem()
	m.WriteFile("log", []byte("abc"))
	f, err := m.OpenFile("log", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("def"))
	got, _ := m.ReadFile("log")
	if string(got) != "abcdef" {
		t.Fatalf("append result = %q", got)
	}
}

func TestFaultTripsNthOp(t *testing.T) {
	m := NewMem()
	ff := NewFault(m)
	f, err := ff.Create("x") // open #1
	if err != nil {
		t.Fatal(err)
	}
	ff.Arm(3, Fault{}, OpWrite)
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write err = %v, want injected", err)
	}
	if !ff.Tripped() {
		t.Fatal("not tripped")
	}
	// One-shot fault: the next write succeeds.
	if _, err := f.Write([]byte("after")); err != nil {
		t.Fatalf("post-trip write = %v, want nil (no freeze)", err)
	}
}

func TestFaultFreezeLatches(t *testing.T) {
	m := NewMem()
	ff := NewFault(m)
	f, _ := ff.Create("x")
	ff.Arm(1, Fault{Err: ErrNoSpace, Freeze: true}, OpWrite, OpSync)
	if _, err := f.Write([]byte("a")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("frozen sync err = %v", err)
	}
	ff.Disarm()
	if _, err := f.Write([]byte("b")); err != nil {
		t.Fatalf("post-disarm write = %v", err)
	}
}

func TestFaultTornWrite(t *testing.T) {
	m := NewMem()
	ff := NewFault(m)
	f, _ := ff.Create("x")
	ff.Arm(1, Fault{TornBytes: 3}, OpWrite)
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if n != 3 {
		t.Fatalf("short write n = %d, want 3", n)
	}
	got, _ := m.ReadFile("x")
	if string(got) != "abc" {
		t.Fatalf("on-disk prefix = %q, want abc", got)
	}
}

func TestFaultCountsOps(t *testing.T) {
	m := NewMem()
	ff := NewFault(m)
	f, _ := ff.Create("x")
	f.Write([]byte("1"))
	f.Write([]byte("2"))
	f.Sync()
	if got := ff.OpCount(OpWrite); got != 2 {
		t.Fatalf("write count = %d", got)
	}
	if got := ff.OpCount(OpSync); got != 1 {
		t.Fatalf("sync count = %d", got)
	}
	if got := ff.TotalOps(); got != 4 { // open + 2 writes + sync
		t.Fatalf("total = %d", got)
	}
}

// OS and MemFS must behave identically on the happy path the storage
// layer uses; run the same sequence through both.
func TestOSAndMemParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
	}{
		{"os", prefixed(t)},
		{"mem", NewMem()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := tc.fs
			if err := fsys.MkdirAll("d", 0o755); err != nil {
				t.Fatal(err)
			}
			f, err := fsys.OpenFile("d/seg", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("0123456789"))
			f.Sync()
			f.Close()

			g, err := fsys.OpenFile("d/seg", os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Seek(0, io.SeekEnd); err != nil {
				t.Fatal(err)
			}
			g.Write([]byte("ab"))
			g.Close()

			r, _ := fsys.Open("d/seg")
			got, _ := io.ReadAll(r)
			if string(got) != "0123ab" {
				t.Fatalf("content = %q", got)
			}
			names, err := fsys.ReadDir("d")
			if err != nil || len(names) != 1 || names[0] != "seg" {
				t.Fatalf("ReadDir = %v, %v", names, err)
			}
		})
	}
}

// TestMkdirAllOverFile: MkdirAll at a file, or below one, fails with
// ENOTDIR naming the file, on the real filesystem and on MemFS alike —
// a state directory opened where an older layout left a file.
func TestMkdirAllOverFile(t *testing.T) {
	osFS := prefixed(t)
	for _, tc := range []struct {
		name string
		fs   FS
		root string // stripped from the error, which names a full path on the OS
	}{
		{"os", osFS, osFS.dir + "/"},
		{"mem", NewMem(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.fs.Create("manifest.json")
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			for _, path := range []string{"manifest.json", "manifest.json/cuts"} {
				err := tc.fs.MkdirAll(path, 0o755)
				if !errors.Is(err, syscall.ENOTDIR) || strings.ReplaceAll(err.Error(), tc.root, "") != "mkdir manifest.json: not a directory" {
					t.Errorf("MkdirAll(%q) = %v, want mkdir manifest.json: not a directory", path, err)
				}
			}
		})
	}
}

// prefixed returns the real FS rooted in a fresh temp dir by rewriting
// paths — enough for the parity test's relative names.
func prefixed(t *testing.T) *prefixFS {
	t.Helper()
	return &prefixFS{dir: t.TempDir()}
}

type prefixFS struct{ dir string }

func (p *prefixFS) path(n string) string { return p.dir + "/" + n }

func (p *prefixFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return OS{}.OpenFile(p.path(name), flag, perm)
}
func (p *prefixFS) Open(name string) (File, error)   { return OS{}.Open(p.path(name)) }
func (p *prefixFS) Create(name string) (File, error) { return OS{}.Create(p.path(name)) }
func (p *prefixFS) Rename(o, n string) error         { return OS{}.Rename(p.path(o), p.path(n)) }
func (p *prefixFS) Remove(name string) error         { return OS{}.Remove(p.path(name)) }
func (p *prefixFS) MkdirAll(name string, perm os.FileMode) error {
	return OS{}.MkdirAll(p.path(name), perm)
}
func (p *prefixFS) ReadDir(name string) ([]string, error) { return OS{}.ReadDir(p.path(name)) }

// TestWriteAtomicAllOrNothing fails every mutating operation of a
// replace in turn: the old file stays whole and no sibling is left
// behind, until the replace goes through and the new bytes are there.
func TestWriteAtomicAllOrNothing(t *testing.T) {
	mem := NewMem()
	mem.WriteFile("dir/ckpt", []byte("old"))
	ff := NewFault(mem)
	write := func(w io.Writer) error { _, err := w.Write([]byte("new")); return err }
	for n := int64(1); ; n++ {
		ff.Arm(n, Fault{TornBytes: 1}, MutatingOps()...)
		err := WriteAtomic(ff, "dir/ckpt", write)
		tripped := ff.Tripped()
		ff.Disarm()
		got, _ := mem.ReadFile("dir/ckpt")
		if names, _ := mem.ReadDir("dir"); len(names) != 1 {
			t.Fatalf("op %d: files left = %v", n, names)
		}
		if !tripped {
			if err != nil || string(got) != "new" || n != 5 {
				t.Fatalf("replace ran clean with %d ops: %q, %v; want \"new\" after create, write, sync, rename", n-1, got, err)
			}
			break
		}
		if !errors.Is(err, ErrInjected) || string(got) != "old" {
			t.Fatalf("op %d: err %v, file %q; want the injected fault and the old bytes", n, err, got)
		}
	}
	if err := WriteAtomic(mem, "dir/ckpt", func(io.Writer) error { return io.ErrShortWrite }); err != io.ErrShortWrite {
		t.Fatalf("the writer's error came back as %v, want it as is", err)
	}
}
