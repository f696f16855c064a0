// Package fsx is a hermetic stub of provex/internal/fsx for the
// analyzer fixtures: the same package path suffix, interface names and
// method sets as the real fault-injection boundary.
package fsx

import "os"

type File interface {
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

func WriteAtomic(f FS, path string, write func(File) error) error { return nil }
