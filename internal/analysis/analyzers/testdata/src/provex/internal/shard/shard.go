// Package shard is a hermetic stub of provex/internal/shard for the
// durabilityerr fixtures: the ledger/manifest write paths carry the
// same names as the real coordinated-checkpoint machinery. The fixture
// functions live in-package because ledger and writeManifest are
// unexported in the real tree too — the analyzer must fire on
// intra-package discards.
package shard

import "provex/internal/wal"

type ledger struct{}

func (l *ledger) append(global uint64, watermarks []uint64) error { return nil }
func (l *ledger) reset() error                                    { return nil }

func writeManifest(path string) error { return nil }

func discards(l *ledger) {
	l.append(1, nil)          // want `error from ledger\.append is discarded`
	_ = l.reset()             // want `error from ledger\.reset is assigned to _`
	writeManifest("m.json")   // want `error from writeManifest is discarded`
	defer wal.Wipe("shard-0") // want `error from Wipe is discarded by defer`
}

func checks(l *ledger) error {
	if err := l.append(2, nil); err != nil {
		return err
	}
	if err := writeManifest("m.json"); err != nil {
		return err
	}
	if err := wal.Wipe("shard-0"); err != nil {
		return err
	}
	return l.reset()
}
