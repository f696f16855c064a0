// Package wal is a hermetic stub of provex/internal/wal for the
// analyzer fixtures.
package wal

type Log struct{}

func (l *Log) Append(seq uint64, data []byte) error { return nil }
func (l *Log) Truncate() error                      { return nil }
func (l *Log) Sync() error                          { return nil }

func Wipe(dir string) error { return nil }
