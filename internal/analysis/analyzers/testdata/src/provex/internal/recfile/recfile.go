// Package recfile is a hermetic stub of provex/internal/recfile for the
// analyzer fixtures.
package recfile

type Dir struct{}

func Open(path string) (*Dir, int64, error) { return &Dir{}, 0, nil }

func (d *Dir) CreateNext() error        { return nil }
func (d *Dir) Sync() error              { return nil }
func (d *Dir) RemoveBefore(n int) error { return nil }
func (d *Dir) Rewind(size int64)        {}
