// Package storage is a hermetic stub of provex/internal/storage for
// the analyzer fixtures.
package storage

type Store struct{}

func (s *Store) Put(data []byte) error { return nil }
func (s *Store) Sync() error           { return nil }
