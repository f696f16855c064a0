package pipeline

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/gen"
)

// TestReplayWorkPerMessage is a deterministic work counter of recovery
// from the log: the allocations OpenDurable makes per message it
// replays, on seed-1 20 000 messages logged with no checkpoint, into an
// unbounded engine. It runs in a process of its own, and the messages
// are logged as parsed, so the replay starts as a restarting process
// does: no term interned, no text symbol table trained. The bound sits
// just above the measured 10.86. Logged through score.NewDoc, which
// did both before the replay began, it read 9.74; while a second scan
// after wal.Open decoded every record again for the engine, 16.49;
// before the pool held an open bundle of one message as its record,
// with no Bundle and no node array, 10.24. Under -race, whose
// instrumentation allocates, the allocations are logged but not held to
// their bound.
func TestReplayWorkPerMessage(t *testing.T) {
	const (
		n           = 20000
		allocBudget = 10.92
	)
	if !inOwnProcess(t) {
		return
	}
	opts := DurableOptions{FS: fsx.NewMem(), CheckpointPath: "engine.ckpt", WALDir: "wal"}
	d, err := OpenDurable(core.FullIndexConfig(), nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(gen.DefaultConfig())
	for i := 0; i < n; i++ {
		if err := d.Log(g.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = OpenDurable(core.FullIndexConfig(), nil, nil, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Replayed(); got != n {
		t.Fatalf("replayed %d messages, want %d", got, n)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("WAL replay %.2f allocations per message (budget %.2f)", allocs, allocBudget)
	if allocs > allocBudget && !raceBuild {
		t.Errorf("WAL replay makes %.2f allocations per message, budget %.2f", allocs, allocBudget)
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// inOwnProcess reports whether the calling test is running alone in a
// child process of the test binary, and should measure. When it is not,
// it runs the test in such a child, relays the child's log lines, fails
// if the child failed, and reports false.
func inOwnProcess(t *testing.T) bool {
	t.Helper()
	run := "^" + t.Name() + "$"
	if flag.Lookup("test.run").Value.String() == run {
		return true
	}
	out, err := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1", "-test.v").CombinedOutput()
	for _, line := range strings.Split(string(out), "\n") {
		if _, msg, ok := strings.Cut(line, "memory_test.go:"); ok {
			_, msg, _ = strings.Cut(msg, ": ")
			t.Log(msg)
		}
	}
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	return false
}
