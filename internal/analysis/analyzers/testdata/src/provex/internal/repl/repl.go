// Package repl is a hermetic stub of provex/internal/repl for the
// durabilityerr fixtures: checkpoint-install and catch-up paths carry
// the same receiver and method names as the real replica. Fixtures are
// in-package because installCheckpoint and resync are unexported.
package repl

type Replica struct{}

func (r *Replica) installCheckpoint(op string) error { return nil }
func (r *Replica) resync(generation uint64) error    { return nil }

func discards(r *Replica) {
	r.installCheckpoint("bootstrap") // want `error from Replica\.installCheckpoint is discarded`
	go r.resync(1)                   // want `error from Replica\.resync is discarded by go`
}

func checks(r *Replica) error {
	if err := r.installCheckpoint("bootstrap"); err != nil {
		return err
	}
	return r.resync(2)
}
