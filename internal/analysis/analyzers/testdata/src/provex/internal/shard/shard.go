// Package shard is a hermetic stub of provex/internal/shard for the
// durabilityerr fixtures: the round ledger's write paths carry the same
// names as the real coordinated-checkpoint machinery. The fixture
// functions live in-package because ledger is unexported in the real
// tree too — the analyzer must fire on intra-package discards.
package shard

import "provex/internal/wal"

type ledger struct{}

func (l *ledger) append(global uint64, watermarks []uint64) error   { return nil }
func (l *ledger) truncate(global uint64, watermarks []uint64) error { return nil }

func discards(l *ledger) {
	l.append(1, nil)          // want `error from ledger\.append is discarded`
	_ = l.truncate(1, nil)    // want `error from ledger\.truncate is assigned to _`
	defer wal.Wipe("shard-0") // want `error from Wipe is discarded by defer`
}

func checks(l *ledger) error {
	if err := l.append(2, nil); err != nil {
		return err
	}
	if err := wal.Wipe("shard-0"); err != nil {
		return err
	}
	return l.truncate(2, nil)
}
