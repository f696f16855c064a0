package provex_test

// Doc-coverage contract for OBSERVABILITY.md: wire the metrics
// registry exactly the way provserve's fully-featured mode does
// (engine + durable WAL + pipeline service + HTTP server), render the
// exposition, and require every exported metric family to be
// documented by name in OBSERVABILITY.md — so a metric cannot ship
// without its runbook entry, and the runbook cannot go stale without
// this test noticing.

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"provex/internal/core"
	"provex/internal/fsx"
	"provex/internal/metrics"
	"provex/internal/pipeline"
	"provex/internal/query"
	"provex/internal/repl"
	"provex/internal/server"
	"provex/internal/shard"
	"provex/internal/trace"
)

// fullRegistry builds the union of every metric family the system can
// export, mirroring provserve's live durable mode.
func fullRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	dur, err := pipeline.OpenDurable(core.FullIndexConfig(), nil, nil, pipeline.DurableOptions{
		FS:             fsx.NewMem(),
		CheckpointPath: "engine.ckpt",
		WALDir:         "wal",
		WALSyncEvery:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	dur.RegisterMetrics(reg)
	dur.Engine().RegisterMetrics(reg)
	proc := query.New(dur.Engine(), query.DefaultOptions())
	proc.RegisterMetrics(reg)
	svc := pipeline.New(proc, pipeline.Options{Durable: dur})
	svc.RegisterMetrics(reg)
	rec := trace.New(trace.Options{SampleEvery: 1})
	rec.RegisterMetrics(reg)
	// leader-side WAL shipping families
	repl.NewSource(dur, repl.SourceOptions{}).RegisterMetrics(reg)
	// follower families; the replica is never started, so only its
	// repl_-level instruments register (its engine/WAL/pipeline series
	// are the same families the durable node above already exports)
	rep, err := repl.NewReplica("http://leader.invalid", core.FullIndexConfig(), repl.ReplicaOptions{
		FS:             fsx.NewMem(),
		CheckpointPath: "replica.ckpt",
		WALDir:         "replica-wal",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.RegisterMetrics(reg)
	// registers HTTP + backend-snapshot + build-info/process families
	server.New(svc, server.WithRegistry(reg), server.WithTrace(rec))
	return reg
}

// shardRegistry mirrors provserve's sharded durable mode on its own
// registry: the shard Service reuses the provex_pipeline_* family
// names and each shard engine re-registers the serial families under a
// shard label, so the sharded stack must live apart from fullRegistry
// (one deployment runs one shell).
func shardRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	q := query.DefaultOptions()
	dur, err := shard.OpenDurable(core.FullIndexConfig(),
		shard.Options{Shards: 2, Query: &q},
		shard.DurableOptions{
			FS:           fsx.NewMem(),
			Dir:          "shards",
			ManifestPath: "manifest.json",
			WALSyncEvery: 8,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	dur.Engine.RegisterMetrics(reg)
	dur.RegisterMetrics(reg)
	svc, err := shard.NewService(dur.Engine, dur, shard.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.RegisterMetrics(reg)
	return reg
}

// familyNames extracts every family declared by a `# TYPE name kind`
// line of a rendered exposition.
func familyNames(t *testing.T, exposition string) []string {
	t.Helper()
	var names []string
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			names = append(names, fields[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no # TYPE lines in exposition")
	}
	return names
}

// allFamilyNames unions the family names of every deployment shell:
// the serial full wiring plus the sharded stack.
func allFamilyNames(t *testing.T) []string {
	t.Helper()
	seen := make(map[string]bool)
	var names []string
	for _, reg := range []*metrics.Registry{fullRegistry(t), shardRegistry(t)} {
		var b strings.Builder
		if err := reg.Expose(&b); err != nil {
			t.Fatal(err)
		}
		for _, name := range familyNames(t, b.String()) {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

func TestObservabilityDocCoversEveryMetric(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	names := allFamilyNames(t)
	if len(names) < 20 {
		t.Errorf("only %d metric families exported — did registration get unplugged?", len(names))
	}
	for _, name := range names {
		if !strings.Contains(text, name) {
			t.Errorf("metric family %q is exported but not documented in OBSERVABILITY.md", name)
		}
	}
}

// TestObservabilityDocNamesExist is the reverse direction: every
// provex_-prefixed name the runbook mentions must actually be exported,
// catching renames that orphan documentation.
func TestObservabilityDocNamesExist(t *testing.T) {
	exported := make(map[string]bool)
	for _, name := range allFamilyNames(t) {
		exported[name] = true
	}
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(doc)))
	for sc.Scan() {
		line := sc.Text()
		for rest := line; ; {
			i := strings.Index(rest, "provex_")
			if i < 0 {
				break
			}
			name := rest[i:]
			if j := strings.IndexAny(name, "`{ .,|)"); j >= 0 {
				name = name[:j]
			}
			rest = rest[i+len("provex_"):]
			if !exported[name] {
				t.Errorf("OBSERVABILITY.md documents %q but the full wiring does not export it (line: %s)", name, strings.TrimSpace(line))
			}
		}
	}
}
