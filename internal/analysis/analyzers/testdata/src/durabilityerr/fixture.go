// Package fixture exercises the durabilityerr analyzer: discarded
// errors from WAL, storage, recfile and fsx write paths are flagged; checked
// errors and non-critical calls are not.
package fixture

import (
	"provex/internal/fsx"
	"provex/internal/recfile"
	"provex/internal/storage"
	"provex/internal/wal"
)

func discards(l *wal.Log, s *storage.Store, f fsx.File, fsys fsx.FS) {
	l.Append(1, nil)      // want `error from Log\.Append is discarded`
	_ = l.Truncate()      // want `error from Log\.Truncate is assigned to _`
	defer s.Sync()        // want `error from Store\.Sync is discarded by defer`
	go s.Put(nil)         // want `error from Store\.Put is discarded by go`
	f.Sync()              // want `error from File\.Sync is discarded`
	_, _ = f.Write(nil)   // want `error from File\.Write is assigned to _`
	fsys.Rename("a", "b") // want `error from FS\.Rename is discarded`
}

func discardsShared(d *recfile.Dir, fsys fsx.FS) {
	d.CreateNext()                     // want `error from Dir\.CreateNext is discarded`
	defer d.Sync()                     // want `error from Dir\.Sync is discarded by defer`
	_ = d.RemoveBefore(1)              // want `error from Dir\.RemoveBefore is assigned to _`
	_, _, _ = recfile.Open("wal")      // want `error from Open is assigned to _`
	fsx.WriteAtomic(fsys, "ckpt", nil) // want `error from WriteAtomic is discarded`
	d.Rewind(8)                        // latches instead of returning: nothing to check
}

func checks(l *wal.Log, s *storage.Store, f fsx.File) error {
	if err := l.Append(2, nil); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	n, err := f.Write(nil)
	if err != nil {
		return err
	}
	_ = n
	return f.Sync()
}

// nonCritical proves ordinary methods are untouched even when their
// receiver type lives in a critical package.
func nonCritical(f fsx.File) {
	f.Close()
}
