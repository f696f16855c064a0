package fsx

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the generic injected failure.
var ErrInjected = errors.New("fsx: injected fault")

// ErrNoSpace models ENOSPC from an injected full disk.
var ErrNoSpace = errors.New("fsx: injected fault: no space left on device")

// Op classifies a filesystem operation for fault matching.
type Op uint8

// Operation kinds. OpWrite covers Write and WriteAt; OpOpen covers
// every open/create variant.
const (
	OpOpen Op = iota
	OpWrite
	OpSync
	OpTruncate
	OpRename
	OpRemove
	opCount
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("op%d", uint8(o))
	}
}

// MutatingOps lists every operation that changes on-disk state — the
// default fault target set.
func MutatingOps() []Op { return []Op{OpOpen, OpWrite, OpSync, OpTruncate, OpRename, OpRemove} }

// Fault describes what happens when a FaultFS plan trips.
type Fault struct {
	// Err is the error returned; nil means ErrInjected.
	Err error
	// TornBytes > 0 turns a tripped write into a short write: that many
	// bytes (at most) land in the file before the error is returned —
	// the classic torn-write crash signature.
	TornBytes int
	// Freeze keeps the fault latched: after the trip, every further
	// mutating operation fails too, modelling a process whose storage
	// has gone away for good (until Disarm).
	Freeze bool
}

// Trigger is the schedule of one planned fault, shared by every
// injector in the tree (FaultFS here, the replication transport's on
// the wire): after Arm(nth, freeze) the nth matching event from now
// trips; with freeze, every matching event after it trips too — a
// dying disk or a dead link, not a blip — until it is armed again or
// reset to the zero Trigger, which is disarmed. It holds no lock: its
// owner serialises the calls.
type Trigger struct {
	armed, freeze, tripped bool
	left                   int64 // matching events before the trip
}

// Arm plans a trip on the nth (1-based; less counts as 1) matching
// event from now, replacing any earlier plan and clearing its trip.
func (t *Trigger) Arm(nth int64, freeze bool) {
	*t = Trigger{armed: true, freeze: freeze, left: max(nth, 1)}
}

// Fire counts one matching event and reports whether it fails, and
// whether it is the planned event itself rather than a frozen repeat.
func (t *Trigger) Fire() (trip, first bool) {
	switch {
	case !t.armed:
		return false, false
	case t.tripped:
		return t.freeze, false
	}
	if t.left--; t.left > 0 {
		return false, false
	}
	t.tripped = true
	return true, true
}

// FaultFS wraps an FS and injects one planned fault: the Nth operation
// matching the armed op set fails. It is safe for concurrent use.
type FaultFS struct {
	inner FS

	mu    sync.Mutex
	ops   [opCount]int64 // total operations seen, per kind; guarded by mu
	match [opCount]bool  // guarded by mu
	fault Fault          // guarded by mu
	trig  Trigger        // guarded by mu
}

// NewFault wraps inner (nil = real filesystem) with an initially
// disarmed injector: all operations pass through untouched.
func NewFault(inner FS) *FaultFS {
	return &FaultFS{inner: Default(inner)}
}

// Arm plans one fault: the nth (1-based) operation matching ops fails
// with f. An empty ops list matches every mutating operation. Re-arming
// replaces any previous plan and clears the tripped state.
func (t *FaultFS) Arm(nth int64, f Fault, ops ...Op) {
	if f.Err == nil {
		f.Err = ErrInjected
	}
	if len(ops) == 0 {
		ops = MutatingOps()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trig.Arm(nth, f.Freeze)
	t.fault = f
	t.match = [opCount]bool{}
	for _, o := range ops {
		t.match[o] = true
	}
}

// Disarm cancels the plan; subsequent operations pass through.
func (t *FaultFS) Disarm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trig = Trigger{}
}

// Tripped reports whether the armed fault has fired.
func (t *FaultFS) Tripped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trig.tripped
}

// OpCount returns how many operations of kind o have been observed —
// used by torture tests to size the random fault window.
func (t *FaultFS) OpCount(o Op) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[o]
}

// TotalOps returns the count of all observed operations.
func (t *FaultFS) TotalOps() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, c := range t.ops {
		n += c
	}
	return n
}

// check counts one operation and decides whether it fails. The second
// return is the torn-write byte budget (only meaningful for OpWrite
// when err != nil); a frozen repeat never tears.
func (t *FaultFS) check(o Op) (error, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops[o]++
	if !t.match[o] {
		return nil, 0
	}
	switch trip, first := t.trig.Fire(); {
	case first:
		return t.fault.Err, t.fault.TornBytes
	case trip:
		return t.fault.Err, 0
	}
	return nil, 0
}

// OpenFile implements FS.
func (t *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err, _ := t.check(OpOpen); err != nil {
		return nil, err
	}
	f, err := t.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, t: t}, nil
}

// Open implements FS. Reads are not fault targets, so no check.
func (t *FaultFS) Open(name string) (File, error) {
	f, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, t: t}, nil
}

// Create implements FS.
func (t *FaultFS) Create(name string) (File, error) {
	if err, _ := t.check(OpOpen); err != nil {
		return nil, err
	}
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, t: t}, nil
}

// Rename implements FS.
func (t *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := t.check(OpRename); err != nil {
		return err
	}
	return t.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (t *FaultFS) Remove(name string) error {
	if err, _ := t.check(OpRemove); err != nil {
		return err
	}
	return t.inner.Remove(name)
}

// MkdirAll implements FS.
func (t *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return t.inner.MkdirAll(path, perm)
}

// ReadDir implements FS.
func (t *FaultFS) ReadDir(name string) ([]string, error) {
	return t.inner.ReadDir(name)
}

// faultFile consults the injector on every mutating file operation.
type faultFile struct {
	File
	t *FaultFS
}

// Write implements io.Writer, honouring torn-write faults: a tripped
// write may land a prefix of p before reporting the error.
func (f *faultFile) Write(p []byte) (int, error) {
	err, torn := f.t.check(OpWrite)
	if err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.File.Write(p[:torn])
		}
		return n, err
	}
	return f.File.Write(p)
}

// WriteAt implements io.WriterAt with the same torn-write semantics.
func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	err, torn := f.t.check(OpWrite)
	if err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.File.WriteAt(p[:torn], off)
		}
		return n, err
	}
	return f.File.WriteAt(p, off)
}

// Sync implements File.
func (f *faultFile) Sync() error {
	if err, _ := f.t.check(OpSync); err != nil {
		return err
	}
	return f.File.Sync()
}

// Truncate implements File.
func (f *faultFile) Truncate(size int64) error {
	if err, _ := f.t.check(OpTruncate); err != nil {
		return err
	}
	return f.File.Truncate(size)
}
