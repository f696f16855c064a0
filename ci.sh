#!/usr/bin/env bash
# CI gate: build, vet, unit tests, then the race-detector pass. The
# race pass matters since the ingest pipeline grew concurrent stages
# (log stage ahead of the writer, sharded probe/commit rounds,
# read-lock queries). The repo's own static analysis, provlint's seven
# analyzers, is the root test TestLint (DESIGN.md §2f, §2j): it runs in
# every go test of the root package and once more uncached at the end.
set -euo pipefail
cd "$(dirname "$0")"

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

# gofmt: every Go file in the tree, testdata included, is as gofmt
# prints it; a listed file fails the gate.
echo "== gofmt =="
unformatted="$(gofmt -l .)"
[ -z "$unformatted" ] || { echo "gofmt: not formatted:"; echo "$unformatted"; exit 1; }

# Fuzz smoke: each native fuzz target gets a short budget. The corpus
# work happens offline; CI just proves the harnesses still run and the
# seeds still pass.
echo "== fuzz smoke =="
go test ./internal/wal -fuzz FuzzOpenReplay -fuzztime 10s -run '^$'
# the shared segment scanner under the WAL, the store and the round
# ledger (its seeds include a file of each)
go test ./internal/recfile -fuzz FuzzScan -fuzztime 10s -run '^$'
go test ./internal/tokenizer -fuzz FuzzTokenizeKeywords -fuzztime 10s -run '^$'
# the process-wide term dictionary: ID → term round trip through its
# term column, class kept, Lookup never adds a term
go test ./internal/termdict -fuzz FuzzDict -fuzztime 10s -run '^$'
go test ./internal/promtext -fuzz FuzzParse -fuzztime 10s -run '^$'
# the two decoders of the other frame users: a checkpoint (a download
# from the leader is one) and the replication stream; every checkpoint
# input restores a whole engine, so minimising is capped as below
go test ./internal/core -fuzz FuzzRestoreCheckpoint -fuzztime 10s -fuzzminimizetime 20x -run '^$'
go test ./internal/repl -fuzz FuzzFrameDecoder -fuzztime 10s -run '^$'
go test ./internal/analysis/analyzers -fuzz FuzzParseGuardedBy -fuzztime 10s -run '^$'
# candidate fetch over the summary index's per-class list columns
# against the map-and-sort fetch it replaced
go test ./internal/sumindex -fuzz FuzzCandidates -fuzztime 10s -run '^$'
# the sharded round's floored probe against full probes, message by
# message, over generated streams at any seed, shard count and batch
go test ./internal/shard -fuzz FuzzFlooredProbe -fuzztime 10s -run '^$'
# a bundle's three summary forms against the eight-map reference (the
# seeds include a one-message script and promotionScript, whose
# single-node terms gain their second node after node 16); every input
# is ~40 Adds with the full comparison after each, so minimising a new
# corpus entry is capped or it would eat the whole budget
go test ./internal/bundle -fuzz FuzzBundleSummary -fuzztime 10s -fuzzminimizetime 20x -run '^$'
# the message index against the map-and-slice index it replaced (adds in
# and out of key order, deletes, compactions, searches; the index finds
# a list by each word's keyword ID in its list column, the reference by
# the word), and its posting codec across slab sizes and chains
go test ./internal/textindex -fuzz FuzzSearchMatchesOracle -fuzztime 10s -fuzzminimizetime 20x -run '^$'
go test ./internal/textindex -fuzz FuzzPostingsRoundTrip -fuzztime 10s -run '^$'
# the two parsers of outside input: message text (indicants, the stored
# form) and the JSONL codec; and the Doc prepare makes of the parse
# output, which must read back as that output from its IDs alone
go test ./internal/tweet -fuzz FuzzParse -fuzztime 10s -run '^$'
go test ./internal/stream -fuzz FuzzJSONL -fuzztime 10s -run '^$'
go test ./internal/score -fuzz FuzzDoc -fuzztime 10s -run '^$'
# the record text's codec: a table trained on any sample (empty, one
# byte value, not UTF-8) codes any bytes, over 64 KiB too, back to
# themselves
go test ./internal/fsst -fuzz FuzzTextCode -fuzztime 10s -run '^$'

# README's quickstart output block is quoted, not illustrated: every
# line of it must be a line the example prints today.
echo "== quickstart vs README =="
quick_tmp="$(mktemp -d)"
trap 'rm -rf "$quick_tmp"' EXIT
go run ./examples/quickstart >"$quick_tmp/quickstart.out"
awk '/^## Quickstart/ { q = 1; next }
     q && /^```/ { if (fence) { if (bare) exit; fence = 0 } else { fence = 1; bare = ($0 == "```") } next }
     q && fence && bare' README.md >"$quick_tmp/quickstart.readme"
[ -s "$quick_tmp/quickstart.readme" ] || { echo "quickstart: no output block under README's Quickstart"; exit 1; }
while IFS= read -r line; do
    grep -Fxq -- "$line" "$quick_tmp/quickstart.out" \
        || { echo "quickstart: README quotes a line the example does not print: $line"; exit 1; }
done <"$quick_tmp/quickstart.readme"
echo "quickstart: all $(wc -l <"$quick_tmp/quickstart.readme") README lines printed"

# The WAL's group-commit path, once: a batch of 64 appends, one write,
# one fsync (a Service's batch is whatever its queue held, up to the
# queue's capacity; the benchmark times a fixed size). TestAppendZeroAlloc
# pins its allocations; this proves the benchmark that times it still
# builds and runs.
echo "== wal append benchmark (1x) =="
go test ./internal/wal -run '^$' -bench BenchmarkAppend -benchtime 1x

# govulncheck is best-effort: it needs the tool and a vulndb, neither
# of which an offline builder has.
echo "== govulncheck (best effort) =="
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./... || { echo "govulncheck: FAILED"; exit 1; }
else
    echo "govulncheck: not installed, skipping"
fi

# -shuffle=on randomizes test order within each package, flushing out
# inter-test state dependence; the seed is printed on failure.
echo "== go test =="
go test -shuffle=on ./...

echo "== go test -race =="
go test -race -shuffle=on ./...

# Durability-critical packages once more, uncached: the fault-injection
# and WAL tests, the two-stage ingest loop (apply-after-sync, the
# checkpoint barrier) and the follower's checks of the leader's stream
# and checkpoint are the crash-safety gate and must not ride a stale
# test cache. So are the users of termdict.Column, the one paged
# table: the dictionary's lock-free Term reads ride on the column's
# atomic page directory, and both indexes keep their lists in columns.
echo "== durability (-race -count=1) =="
go test -race -count=1 ./internal/fsx ./internal/recfile ./internal/wal ./internal/storage ./internal/pipeline \
    ./internal/repl ./internal/termdict ./internal/textindex ./internal/sumindex

# Sharded engine gate and crash torture, once, uncached, under the race
# detector (DESIGN.md §2d, §2h, §2i): randomized fault points, crash,
# recover, compare against an uninterrupted run — one seeded harness over
# the serial node, the sharded node and a follower tailing a leader,
# disk and wire faults on one trigger (it lives in internal/shard, which
# can import all three; seeds are fixed, a failure prints the seed in
# the subtest name and each round's fault) — plus the differential equivalence proof, the
# floored probe against full probes, the determinism and shared-recorder
# tracing tests, the disk-full barrier test and the round ledger's own
# tests (a torn round trimmed, acknowledged rounds recovered, the
# resharding refusal, a state of the older manifest layout refused with
# nothing wiped): the correctness contract for -shards > 1.
echo "== sharded engine + crash torture (-race -count=1) =="
go test -race -count=1 \
    -run 'TestCrashTorture|TestShardedEquivalenceWithSerial|TestFlooredProbeMatchesFullProbe|TestShardedDeterminism|TestShardedTracing|TestShardedBarrierDiskFull|TestShardedTornRoundTrimmed|TestShardedReshardingRefused|TestShardedCrashRecoversAcknowledgedRounds|TestShardedManifestFileRefused' \
    -v ./internal/shard | grep -E 'seed|PASS|FAIL|ok '

# Observability loopback, once per engine: a real durable live
# provserve (-shards 1, then -shards 2), built with -race, decision
# tracing on, answers a real provload run over localhost WHILE it is
# still ingesting: provload starts the moment /readyz answers, its mix
# asks /bundle for the bundles /prov ranks first — the ones the writer
# is appending to — and the feed ($loop_n messages, ~3 500 a second
# under the race detector on two slow cores) outlasts the run. Both
# legs must show non-zero throughput (provload exits 1 on zero 2xx), a
# well-formed /metrics scrape (provload errors on malformed exposition
# lines) with the HTTP families present, at least one harvested message
# ID resolved to a well-formed /explain breakdown (full Eq. 1 candidate
# component scores + Table II connection), then
# provex_pipeline_ingested_total reaching the stream length, and a
# clean SIGTERM exit — which a race report (exit 66) or a runtime fatal
# ("concurrent map iteration and map write") is not — after which a
# restart on the same state replays 0 WAL messages (end of input stops
# ingest with a final checkpoint, whichever engine runs). Once each leg
# has ingested the whole stream, and again from its restarted node, the
# /search bodies of three fixed queries are saved: a node has one
# message index, fed in stream order, so the -shards 2 bodies must be
# the -shards 1 bodies byte for byte.
echo "== provload vs ingesting provserve -race loopback (-shards 1, -shards 2) =="
obs_tmp="$(mktemp -d)"
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$obs_tmp" "$quick_tmp"' EXIT
go build -o "$obs_tmp/provserve" ./cmd/provserve
go build -race -o "$obs_tmp/provserve-race" ./cmd/provserve
go build -o "$obs_tmp/provload" ./cmd/provload
go build -o "$obs_tmp/provgen" ./cmd/provgen
"$obs_tmp/provgen" -n 3000 -out "$obs_tmp/loop.jsonl"
loop_n=30000
"$obs_tmp/provgen" -n "$loop_n" -out "$obs_tmp/live.jsonl"
loop_addr=127.0.0.1:18923
# metric NAME: sum of the family's series in a scrape of the loopback node
metric() {
    curl -s "http://$loop_addr/metrics" \
        | awk -v n="$1" '$1 == n || index($1, n "{") == 1 { s += $2; seen = 1 } END { if (seen) print s }'
}
# wait_metric NAME VALUE: poll until the family sums to VALUE
wait_metric() {
    local got=""
    for _ in $(seq 1 240); do
        got="$(metric "$1")" || true
        [ "$got" = "$2" ] && return 0
        sleep 0.25
    done
    echo "loopback: $1 = '$got', want $2"; return 1
}
# save_searches PREFIX: the loopback node's /search body for each fixed
# query, to PREFIX-<i>.json
searches=('q=tsunami+samoa&k=10' 'q=game&k=100' 'q=win+score&k=50')
save_searches() {
    local i
    for i in "${!searches[@]}"; do
        curl -sf "http://$loop_addr/search?${searches[$i]}" >"$1-$i.json"
    done
}
# restart_clean LABEL N FLAGS...: a node restarted on the state a clean
# exit left finds all N messages in the checkpoint and replays none
restart_clean() {
    local label="$1" n="$2"; shift 2
    "$obs_tmp/provserve" "$@" </dev/null >"$state/restart.log" 2>&1 &
    serve_pid=$!
    wait_metric provex_ingest_messages_total "$n"
    wait_metric provex_wal_replayed_messages 0
    save_searches "$state/restarted"
    kill "$serve_pid"
    wait "$serve_pid" || { echo "$label: unclean exit of the restarted node"; exit 1; }
    serve_pid=""
}
for ns in 1 2; do
    state="$obs_tmp/loop-$ns"
    mkdir -p "$state"
    node=(-live -shards "$ns" -ckpt "$state/engine.ckpt" -wal "$state/wal" -addr "$loop_addr")
    "$obs_tmp/provserve-race" "${node[@]}" -in "$obs_tmp/live.jsonl" \
        -trace-sample 1 -trace-buffer 32768 >"$state/serve.log" 2>&1 &
    serve_pid=$!
    "$obs_tmp/provload" -target "http://$loop_addr" -wait 15s \
        -qps 300 -workers 8 -warmup 200ms -duration 2s \
        -mix 'search=5,prov=3,bundle=1,trending=1,explain=2' | tee "$state/load.out"
    fed="$(metric provex_pipeline_ingested_total)"
    [ "${fed:-$loop_n}" -lt "$loop_n" ] \
        || { echo "loopback -shards $ns: the feed ended before the load did, so nothing queried an ingesting node: raise loop_n"; exit 1; }
    grep -q 'provex_http_requests_total' "$state/load.out" \
        || { echo "loopback -shards $ns: HTTP metric families missing from the delta"; exit 1; }
    grep -Eq 'explain: ok=[1-9]' "$state/load.out" \
        || { echo "loopback -shards $ns: no well-formed /explain breakdown observed"; exit 1; }
    grep -q 'explain: .*malformed=0' "$state/load.out" \
        || { echo "loopback -shards $ns: malformed /explain answers"; exit 1; }
    grep -q 'decision quality:' "$state/load.out" \
        || { echo "loopback -shards $ns: decision-quality digest missing"; exit 1; }
    wait_metric provex_pipeline_ingested_total "$loop_n"
    save_searches "$state/ingested"
    for fam in provex_runtime_heap_live_bytes provex_runtime_heap_goal_bytes \
               provex_runtime_gc_cycles_total provex_runtime_mem_mapped_bytes; do
        [ -n "$(metric "$fam")" ] || { echo "loopback -shards $ns: $fam missing from /metrics"; exit 1; }
    done
    kill "$serve_pid"
    wait "$serve_pid" || { echo "loopback -shards $ns: unclean exit on SIGTERM (a race report exits 66)"; cat "$state/serve.log"; exit 1; }
    restart_clean "loopback -shards $ns" "$loop_n" "${node[@]}"
done
for i in "${!searches[@]}"; do
    grep -q '"id"' "$obs_tmp/loop-1/ingested-$i.json" \
        || { echo "loopback: /search?${searches[$i]} finds nothing, so it compares nothing"; exit 1; }
    for when in ingested restarted; do
        cmp -s "$obs_tmp/loop-1/$when-$i.json" "$obs_tmp/loop-2/$when-$i.json" \
            || { echo "loopback: /search?${searches[$i]} on the $when -shards 2 node differs from -shards 1"; exit 1; }
    done
done
echo "loopback: -shards 2 /search equals -shards 1 on ${#searches[@]} queries, ingested and restarted"

# Interrupted build: a build-then-serve node (-in, no -live) honours
# SIGTERM while the feed is still running — ingest stops, the final
# checkpoint is written, `clean exit` is logged — exactly as -live
# does, and a restart on that state replays 0 WAL messages. The input
# is a FIFO held open behind its 3 000 messages, so the signal is
# certain to land mid-feed. -ckpt alone is the whole durability
# switch: the WAL goes to <ckpt>.wal.
echo "== provserve SIGTERM during build-then-serve =="
state="$obs_tmp/build"
mkdir -p "$state"
mkfifo "$state/in.fifo"
exec 3<>"$state/in.fifo"
"$obs_tmp/provserve" -in "$state/in.fifo" -ckpt "$state/engine.ckpt" -addr "$loop_addr" \
    -log-every 100ms 3<&- >"$state/serve.log" 2>&1 &
serve_pid=$!
cat "$obs_tmp/loop.jsonl" >&3
for _ in $(seq 1 120); do
    grep -q 'messages=3000' "$state/serve.log" && break
    sleep 0.25
done
grep -q 'messages=3000' "$state/serve.log" \
    || { echo "build: the feed never reached 3000 messages"; cat "$state/serve.log"; exit 1; }
[ -d "$state/engine.ckpt.wal" ] || { echo "build: -ckpt alone did not put the WAL at <ckpt>.wal"; exit 1; }
kill "$serve_pid"
wait "$serve_pid" || { echo "build: unclean exit on SIGTERM mid-feed"; cat "$state/serve.log"; exit 1; }
exec 3<&-
grep -q 'clean exit' "$state/serve.log" || { echo "build: no clean exit logged"; cat "$state/serve.log"; exit 1; }
restart_clean build 3000 -live -ckpt "$state/engine.ckpt" -addr "$loop_addr"

# A state directory with an older checkpoint beside a WAL is refused:
# provserve exits non-zero naming the version, and leaves every byte of
# it as it was. v2 is the layout before the checkpoint became frames, v3
# the frames over bundle codec v1 (every node's keywords stored), v4 the
# frames over bundle codec v2 (every node's edge score stored).
for v in 2 3 4; do
    echo "== provserve refuses a v$v checkpoint, state untouched =="
    state="$obs_tmp/v$v"
    mkdir -p "$state/engine.ckpt.wal"
    cp "internal/core/testdata/golden_v$v.ckpt" "$state/engine.ckpt"
    cp internal/wal/testdata/golden_pr14.wal "$state/engine.ckpt.wal/wal-000001.log"
    (cd "$state" && find . -type f | sort | xargs sha256sum) >"$obs_tmp/v$v.before"
    if "$obs_tmp/provserve" -ckpt "$state/engine.ckpt" -addr "$loop_addr" </dev/null >"$obs_tmp/v$v.log" 2>&1; then
        echo "v$v: provserve started on a v$v checkpoint"; exit 1
    fi
    grep -q "unsupported version $v" "$obs_tmp/v$v.log" || { echo "v$v: the refusal does not name version $v"; cat "$obs_tmp/v$v.log"; exit 1; }
    (cd "$state" && find . -type f | sort | xargs sha256sum) | cmp -s - "$obs_tmp/v$v.before" \
        || { echo "v$v: the refused state directory changed"; exit 1; }
done

# provingest smoke: the serial engine and the sharded one at B=1 (where
# the round protocol is the serial apply order, DESIGN.md §2i) must
# agree on what the stream contains, per Table II connection type too;
# and two runs on one stream must print the same stdout apart from the
# timing lines (the per-type lines used to come out in map order).
echo "== provingest smoke (-shards 1 vs -shards 2 -shard-batch 1, run to run) =="
go build -o "$obs_tmp/provingest" ./cmd/provingest
ingest() {
    "$obs_tmp/provingest" -in "$obs_tmp/loop.jsonl" -mode full -progress 0 "$@" 2>/dev/null \
        | grep -Ev '^(stage|wall|span) time '
}
ingest_stats() { grep -E '^(messages|bundles created|edges) |^  edges\[' "$1"; }
ingest -shards 1 >"$obs_tmp/ingest-1.out"
ingest -shards 1 >"$obs_tmp/ingest-1-again.out"
ingest -shards 2 -shard-batch 1 >"$obs_tmp/ingest-2.out"
cmp "$obs_tmp/ingest-1.out" "$obs_tmp/ingest-1-again.out" \
    || { echo "provingest: two runs on the same stream print different stdout"; exit 1; }
ingest_stats "$obs_tmp/ingest-1.out" >"$obs_tmp/ingest-1.txt"
ingest_stats "$obs_tmp/ingest-2.out" >"$obs_tmp/ingest-2.txt"
[ "$(wc -l <"$obs_tmp/ingest-1.txt")" = 7 ] || { echo "provingest: statistics block missing"; exit 1; }
[ "$(grep -o 'edges\[[a-z]*\]' "$obs_tmp/ingest-1.txt" | tr '\n' ' ')" = 'edges[text] edges[hashtag] edges[url] edges[rt] ' ] \
    || { echo "provingest: edges[conn] lines are not in Table II order"; exit 1; }
cmp "$obs_tmp/ingest-1.txt" "$obs_tmp/ingest-2.txt" \
    || { echo "provingest: -shards 2 -shard-batch 1 diverges from -shards 1"; exit 1; }
cat "$obs_tmp/ingest-1.txt"

# Pinned decisions: the seed-1 125 000-message stream under the full
# index. Candidate fetch walks URL, hashtag and re-shared-user postings
# only; the uncapped reference (every class, no fanout cut) makes
# 43 423 / 81 577, and the two edges missing here come from hard lists
# over the fanout cut (EXPERIMENTS.md, "Match from hard indicants",
# and the CHANGES.md entry it names).
echo "== provingest pinned counts (provgen -n 125000, full index) =="
"$obs_tmp/provgen" -n 125000 | "$obs_tmp/provingest" -mode full -progress 0 2>/dev/null \
    | grep -E '^(bundles created|edges) ' >"$obs_tmp/pinned.txt"
printf 'bundles created 43425\nedges           81575\n' | cmp -s - "$obs_tmp/pinned.txt" \
    || { echo "provingest: pinned counts moved:"; cat "$obs_tmp/pinned.txt"; exit 1; }
cat "$obs_tmp/pinned.txt"
# The same stream through two shards at the default batch of 256, where
# rounds relax assignment (DESIGN.md §2i) but the floored probe must not
# move a single decision: these are the counts of the full-probe round.
"$obs_tmp/provgen" -n 125000 | "$obs_tmp/provingest" -mode full -shards 2 -progress 0 2>/dev/null \
    | grep -E '^(bundles created|edges) ' >"$obs_tmp/pinned-2.txt"
printf 'bundles created 43555\nedges           81445\n' | cmp -s - "$obs_tmp/pinned-2.txt" \
    || { echo "provingest -shards 2: pinned counts moved:"; cat "$obs_tmp/pinned-2.txt"; exit 1; }
cat "$obs_tmp/pinned-2.txt"

# Replication loopback: a durable leader ingests a generated stream
# while a follower bootstraps from its checkpoint and tails its WAL
# (DESIGN.md §2h). The gate: the follower reports ready with zero lag,
# its /search, /prov and /trending answers and the /bundle trail of the
# bundle /prov ranks first (node dates, parents, scores) are
# byte-identical to the leader's, and provload drives the
# leader+follower pair through /readyz gating without errors.
echo "== leader+follower replication loopback =="
leader_pid=""
follower_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null;
      [ -n "$leader_pid" ] && kill "$leader_pid" 2>/dev/null;
      [ -n "$follower_pid" ] && kill "$follower_pid" 2>/dev/null;
      rm -rf "$obs_tmp" "$quick_tmp"' EXIT
"$obs_tmp/provgen" -n 20000 -out "$obs_tmp/stream.jsonl"
"$obs_tmp/provserve" -live -in "$obs_tmp/stream.jsonl" \
    -ckpt "$obs_tmp/leader.ckpt" -wal "$obs_tmp/leader-wal" \
    -addr 127.0.0.1:18941 >"$obs_tmp/leader.log" 2>&1 &
leader_pid=$!
"$obs_tmp/provserve" -follow http://127.0.0.1:18941 \
    -ckpt "$obs_tmp/follower.ckpt" -wal "$obs_tmp/follower-wal" \
    -addr 127.0.0.1:18942 >"$obs_tmp/follower.log" 2>&1 &
follower_pid=$!
# wait for the leader to finish ingesting (message counter stable)
prev=-1; cur=""
for _ in $(seq 1 240); do
    cur="$(curl -s http://127.0.0.1:18941/metrics \
        | grep -m1 '^provex_ingest_messages_total' | awk '{print $2}')" || true
    [ -n "$cur" ] && [ "$cur" = "$prev" ] && break
    prev="$cur"; sleep 0.5
done
[ "$cur" = "20000" ] || { echo "repl loopback: leader ingested $cur, want 20000"; exit 1; }
# wait for the follower to be ready with the lag metric drained to zero
ready=""; lag=""
for _ in $(seq 1 240); do
    ready="$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18942/readyz)" || true
    lag="$(curl -s http://127.0.0.1:18942/metrics \
        | grep -m1 '^provex_repl_lag_messages' | awk '{print $2}')" || true
    [ "$ready" = "200" ] && [ "$lag" = "0" ] && break
    sleep 0.25
done
[ "$ready" = "200" ] && [ "$lag" = "0" ] \
    || { echo "repl loopback: follower never converged (readyz=$ready lag=$lag)"; exit 1; }
# leader-parity: identical bytes on every read endpoint
top_bundle="$(curl -sf 'http://127.0.0.1:18941/prov?q=tsunami&k=10' \
    | grep -m1 -o '"id": [0-9]*' | grep -o '[0-9]*$')" || true
[ -n "$top_bundle" ] || { echo "repl loopback: /prov?q=tsunami names no bundle"; exit 1; }
for p in '/search?q=tsunami+samoa&k=10' '/prov?q=tsunami&k=10' '/trending?k=10' "/bundle?id=$top_bundle"; do
    curl -sf "http://127.0.0.1:18941$p" >"$obs_tmp/leader.json"
    curl -sf "http://127.0.0.1:18942$p" >"$obs_tmp/follower.json"
    cmp -s "$obs_tmp/leader.json" "$obs_tmp/follower.json" \
        || { echo "repl loopback: follower diverges from leader on $p"; exit 1; }
done
echo "repl loopback: follower converged, parity on /search /prov /trending /bundle?id=$top_bundle"
# the shipping endpoints sit behind the server's middleware: the
# follower's fetches are counted on the leader like any request
curl -s http://127.0.0.1:18941/metrics \
    | awk '$1 == "provex_http_requests_total{code=\"2xx\",path=\"/repl/\"}" && $2 > 0 { ok = 1 } END { exit !ok }' \
    || { echo "repl loopback: the leader counted no 2xx request under path=\"/repl/\""; exit 1; }
"$obs_tmp/provload" -target http://127.0.0.1:18941,http://127.0.0.1:18942 \
    -wait 15s -qps 200 -workers 8 -warmup 200ms -duration 2s >"$obs_tmp/repl-load.out"
grep -E 'requests:' "$obs_tmp/repl-load.out"
kill "$leader_pid" "$follower_pid"
wait "$leader_pid" "$follower_pid" 2>/dev/null || true
leader_pid=""; follower_pid=""

# Bench trajectory smoke: a tiny provbench -json run must emit a
# parseable report with the provbench/1 schema (the format
# BENCH_PR4.json is committed in).
echo "== provbench -json smoke =="
go run ./cmd/provbench -json -fig 13 -n 800 -out "$obs_tmp/bench.json" >/dev/null 2>&1
grep -q '"schema": "provbench/1"' "$obs_tmp/bench.json" \
    || { echo "bench smoke: schema tag missing"; exit 1; }

# Perf smoke: the pruned hot paths (DESIGN.md §2g) must keep cumulative
# bundle-match and placement time near-linear. 40k messages is enough
# stream for large bundles to form (where the pre-pruning placement bent
# quadratic: ~4× per doubling) yet cheap enough for every CI run; the
# factor allows 1.5× the linear extrapolation between 20k and 40k, a
# guardrail against algorithmic regression, not a microbenchmark.
echo "== perf smoke (fig13 linearity) =="
go run ./cmd/provbench -figure fig13 -max 40000 -check-linear 1.5 -out /dev/null

# The fig13 stage-linearity smoke once more on a 4-shard engine, so the
# round protocol cannot regress the §2g hot-path guarantees.
echo "== perf smoke (fig13 linearity, 4 shards) =="
go run ./cmd/provbench -figure fig13 -max 30000 -shards 4 -check-linear 1.5 -out /dev/null

# One counter for every CHANGES.md entry: non-test and test .go lines
# under cmd/ and internal/, testdata excluded.
go_lines() { find cmd internal -name '*.go' -not -path '*/testdata/*' "$@" -print0 | xargs -0 cat | wc -l; }
echo "loc: non-test $(go_lines -not -name '*_test.go') test $(go_lines -name '*_test.go')"

# Same answers, uncached: the pinned SHA-256 of every /search, /prov,
# /trending and /bundle body of a seed-1 20 k durable node (live, after
# a checkpoint restart, after a WAL-only replay; one and two shards) and
# of its checkpoint files; two runs of one stream writing the same
# checkpoint bytes; and every node's derived edge score against the
# score its placement compared.
go test -count=1 -run 'TestAnswerCorpus' .
# The tree rules, uncached, over one go/types load of the module:
# provlint's seven analyzers — fsxdiscipline, durabilityerr,
# metricsreg, hotpathalloc (DESIGN.md §2f) and the concurrency three,
# lockguard, wgbalance, sendafterclose (§2j) — over every non-test file,
# internal/analysis itself included; a finding, a malformed
# //provlint:ignore (test files too) or one that silences nothing fails
# it, printed file:line:col: message [analyzer]. Beside it, every
# exported function under internal/ must have a production caller.
go test -count=1 -run 'TestLint|TestExportsHaveProductionCallers' .
# Same figures, uncached: every deterministic cell of Figs. 6-11, the
# connection breakdown and both ablations at the seed-1 20 k bench
# scale against testdata/figures/.
go test -count=1 -run 'TestFigurePin' .
go test -count=1 -run 'TestCheckpointBytesAreAFunctionOfTheStream|TestEdgeScoreIsDerived' ./internal/core

# The memory budgets, uncached, so every CI log carries the figures:
# live heap bytes per ingested message of the serving shape, the
# engine's cost model against its live heap, the message index's bytes
# per posting with its slab waste, the summary index's bytes per
# posting and its MemBytes against that heap; the apply layer's
# allocations and bytes per message; the checkpoint's bytes and its
# restore's allocations per message; the WAL replay's allocations per
# message; the summary index's inserts by kind; how many live bundles
# the pool holds as their one message's record; and the text bytes per
# message the records hold, coded, against the raw.
go test -count=1 -run 'TestLiveHeapPerMessage|TestApplyAllocationsPerMessage|TestMemEstimateTracksHeap|TestBytesPerPosting|TestCheckpointWorkPerMessage|TestReplayWorkPerMessage|TestSummaryIndexInserts|TestRecordsAtSeed1|TestRecordTextBytes' -v ./internal/query ./internal/core ./internal/textindex ./internal/sumindex ./internal/pipeline \
    | grep -E 'per message|live heap .* ratio|per posting|MemBytes .* ratio|summary-index inserts|live bundles: .* records'

# Group commit by count, uncached: a full queue lands as one batch with
# one fsync, and a direct Durable.Log caller gets the sync cadence it
# opened the log with.
go test -count=1 -run 'TestOneFsyncPerDrainedBatch|TestDirectLogSyncCadence' ./internal/pipeline

echo "CI OK"
