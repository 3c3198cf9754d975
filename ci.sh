#!/bin/bash
# Minimal CI gate: release build, every workspace member's tests,
# lint-clean clippy, guards against a second hook-stream recorder, a
# hashing DAG builder, a second walker over the edge log, a decoded copy
# of the edge log, a second store read path and a hand-written wire codec beside the one declaration per
# message, a second metric writer beside the one declaration per metric,
# architecture-specific code outside the clock read and the CRC fold,
# a lock-free hand-off or unsafe code outside the monitor in the profiler,
# a second readiness backend in the daemon, a query that decodes the
# runs it folds,
# a second task completion sequence in the runtime, a second seeded
# generator or a property-test library beside the one choice stream, a
# vendored stub as a workspace member, the repo benchmark's own smoke
# gate (benchmark/check.sh) and its package's tests, a floor under JSON
# ingest throughput and a ceiling over the causal report, and end-to-end
# smokes of the CLI, the daemon and replication.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== build (release) ==="
cargo build --release

echo "=== tests (every workspace member) ==="
# Without --workspace a root manifest with a [package] tests only that
# package (tests/*.rs): the unit tests inside crates/*/src and the
# doctests would be gated by nothing.
cargo test -q --workspace

echo "=== clippy (workspace, all targets) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== one recorder, one event language ==="
# The packed edge log in crates/core is the only transcript of the hook
# stream and taskprof::Event the only enum naming its events; the three
# recorders that used to ride beside it drifted apart unnoticed.
# (`! git grep` would not do: errexit ignores a negated command.)
if git grep -nE 'TraceMonitor|TraceThread|EventRecorder|RecorderThread|enum EventKind' -- '*.rs'; then
    echo "a second recorder or event enum is back"; exit 1
fi

echo "=== one flat task DAG ==="
# critpath builds its DAG in index-addressed arrays; a map keyed by task or
# a vector per vertex is the shape that cost 6 us per task.
if git grep -nE 'TaskKey|Vec<Vec<' -- crates/critpath/src; then
    echo "per-task hashing or per-vertex vectors are back in critpath"; exit 1
fi

echo "=== one walk of the edge log ==="
# The Section VII trace analysis is a reader of the critpath DAG builder's
# walk (crates/critpath/src/analysis.rs). The separate trace crate walked
# the log a second time with maps of its own, and the two walkers drifted.
if [ -e crates/trace ]; then
    echo "crates/trace is back"; exit 1
fi
if git grep -nE 'taskprof[_]trace|read_trace|from_edge_log' -- '*.rs' '*.toml'; then
    echo "a second walker over the edge log or its text format is back"; exit 1
fi
if git grep -n 'HashMap<TaskId' -- crates/critpath/src; then
    echo "a TaskId-keyed map is back in critpath"; exit 1
fi

echo "=== one form of the edge log ==="
# A drained edge log is the packed words the hooks wrote
# (taskprof::EdgeStream, origin in its header), decoded one event at a time
# by EdgeStream::events as the critpath walk reads it. The per-thread
# Vec<Event> it used to be decoded into cost 24 B per event (22 MB for
# nqueens Small) and set glibc's trim threshold, and the origins list kept
# beside it was read as 0 wherever it was missing.
if git grep -n 'into_events' -- '*.rs'; then
    echo "the edge log is decoded into an event array again"; exit 1
fi
if git grep -nE 'Vec<\(usize, Vec<(taskprof::)?Event>|pub origins' -- crates src; then
    echo "a decoded per-thread event array or an origins list is back"; exit 1
fi

echo "=== one store read path ==="
# The store reads records through a SegmentReader holding one
# StoreIo::open_read handle per segment; read_range survives only as the
# trait method that handle's default falls back to, for implementors
# written before open_read.
if git grep -nE 'read_range\(' -- crates/profstore/src ':!crates/profstore/src/io.rs'; then
    echo "a per-record path read is back in the store"; exit 1
fi

echo "=== one wire declaration ==="
# Every Request/Response field is declared once in
# crates/profserve/src/codec.rs, and the TPF1 and JSON codecs both derive
# from it; a varint written or read, a member looked up or a Json tree
# built anywhere else in the daemon is a second spelling of the wire.
if git grep -nE 'put_uv\(|\.uv\(\)\?|need_u64\(|Json::obj\(' -- crates/profserve/src \
    ':!crates/profserve/src/codec.rs' ':!crates/profserve/src/json.rs'; then
    echo "a hand-written wire codec is back outside crates/profserve/src/codec.rs"; exit 1
fi

echo "=== one frame codec ==="
# Every profile at rest or in flight is one `len | payload | crc32` frame:
# a segment record, a TPF1 message, a replicated run, a spooled export.
# crates/profstore/src/frame.rs writes and checks it, and nothing else
# does; a crc32 call anywhere else is a second hand-written frame, and the
# names below belonged to the framing code the codec replaced.
# benchmark/ is left out: it times profstore::crc::crc32 itself.
if git grep -n 'crc32(' -- crates src tests \
    ':!crates/profstore/src/crc.rs' ':!crates/profstore/src/frame.rs'; then
    echo "a frame is written or checked outside crates/profstore/src/frame.rs"; exit 1
fi
if git grep -nE 'payload_crc|frame_payload|FRAME_OVERHEAD|TailDefect|parse_spool_frame' \
    -- '*.rs' ':!benchmark'; then
    echo "a second frame codec, or its error type, is back"; exit 1
fi

echo "=== machine code stays in two files ==="
# Architecture intrinsics and CPU feature dispatch live in two files, each
# beside the portable code other CPUs take: the TSC clock read
# (crates/pomp/src/clock.rs) and the carry-less-multiply CRC-32 fold
# (crates/profstore/src/crc.rs). The store's only unsafe code is that
# fold's loads and the calls into it.
if git grep -nE 'core::arch|std::arch|target_feature|is_x86_feature_detected' -- crates src tests \
    ':!crates/pomp/src/clock.rs' ':!crates/profstore/src/crc.rs'; then
    echo "architecture-specific code outside clock.rs and crc.rs"; exit 1
fi
if git grep -n 'unsafe' -- crates/profstore/src ':!crates/profstore/src/crc.rs'; then
    echo "unsafe code in the store outside crates/profstore/src/crc.rs"; exit 1
fi

echo "=== one hand-off in core ==="
# Profiler threads share state only at fork, join, thread begin and thread
# end, a few times per thread per region, and crates/core/src/monitor.rs
# does all of it under one std::sync::Mutex. The Treiber stack and three
# atomics it replaced were seven unsafe lines and three memory orderings
# to reason about, and let a drain check for live threads and take the
# snapshots in two steps. The crate's remaining unsafe code is the
# per-thread shard access and the edge log's write, both in monitor.rs.
if git grep -nE 'HandoffStack|AtomicPtr|std::sync::atomic' -- crates/core/src; then
    echo "a lock-free hand-off is back in crates/core"; exit 1
fi
if git grep -n 'unsafe' -- crates/core/src ':!crates/core/src/monitor.rs'; then
    echo "unsafe code in crates/core outside crates/core/src/monitor.rs"; exit 1
fi

echo "=== one readiness backend ==="
# The daemon's reactor (crates/profserve/src/reactor.rs) waits in one
# poll(2) call on a set it rebuilds from its connection table every
# iteration. The epoll backend beside it kept registration state in step
# with the table by hand, through a trait with one caller, and needed
# five unsafe sites; that file's one poll call is the crate's only
# foreign call and its only unsafe code.
if git grep -ni 'epoll' -- crates src tests; then
    echo "a second readiness backend is back"; exit 1
fi
if git grep -nE 'extern "C"|unsafe' -- crates/profserve/src ':!crates/profserve/src/reactor.rs'; then
    echo "foreign or unsafe code in profserve outside crates/profserve/src/reactor.rs"; exit 1
fi

echo "=== one declaration per metric ==="
# Each telemetry family is declared once, one row per metric, and
# crates/telemetry/src/export.rs holds the one Prometheus writer and the
# one JSONL writer and reader. A # HELP line written anywhere else is a
# second spelling of a metric; the export counters and the fleet structs
# were mirrors of families declared elsewhere.
if git grep -nE '# (HELP|TYPE)' -- 'crates/**/*.rs' 'src/**/*.rs' \
    ':!crates/telemetry/src/export.rs'; then
    echo "a Prometheus header is written outside crates/telemetry/src/export.rs"; exit 1
fi
if git grep -nE 'export_counters|ExportCounters|FleetStats|FleetLatencyRow|jsonl_keys' -- '*.rs'; then
    echo "a mirror metric family is back"; exit 1
fi

echo "=== TPF1 ingest verifies, stamps, appends ==="
# A TPF1 record is verified in place, stamped with its run id and
# appended. Decoding it into a Profile only to encode it again cost 110 us
# of a 185 us coarse_large ingest (decode_record 81 + encode_record 29) and
# interned every name of untrusted input into the never-freed registry.
# Prints the body of every function on that path.
ingest_path() {
    awk '/fn (ingest_records|check|ingest_record|ingest_record_with_id|stamp|append_payload|verify_record|walk_record|verify_node)[<(]/ {
             on = 1; match($0, /^ */); end = substr($0, 1, RLENGTH) "}"
         }
         on { print FILENAME ":" FNR ": " $0 }
         on && $0 == end { on = 0 }' "$@"
}
if ingest_path crates/profserve/src/{server,protocol}.rs crates/profstore/src/{codec,store,shard,repo}.rs \
    | grep -E 'decode_record|\.decode\(|read_node'; then
    echo "TPF1 ingest decodes the profile again"; exit 1
fi

echo "=== queries fold record bytes ==="
# Compaction, the windowed aggregate, the trend and a regress candidate
# sent as a record reduce each run straight from its record bytes
# (RunSummary::from_record). Decoding every folded run into a Profile
# first made ~1 000 allocations per coarse_large record, was most of a
# windowed regress, and interned every stored name into the never-freed
# registry. Prints the body of every function on that path and the
# daemon's QUERY regress arm.
query_fold_path() {
    awk '/fn (stream_entries|compact|aggregate|aggregate_window|trend)[<(]|Request::QueryRegress \{/ {
             on = 1; match($0, /^ */); end = substr($0, 1, RLENGTH) "}"
         }
         on { print FILENAME ":" FNR ": " $0 }
         on && $0 == end { on = 0 }' "$@"
}
if query_fold_path crates/profstore/src/{store,shard}.rs crates/profserve/src/server.rs \
    | grep -E 'decode_record|\.decode\(|\.load\(|from_profile|registry'; then
    echo "a query decodes the runs it folds again"; exit 1
fi

echo "=== one task completion sequence ==="
# taskrt begins and completes every task instance, deferred or undeferred,
# in WorkerState::run_task, which hands a completion that resumes a
# suspended explicit task to the monitor as one task_end_resume call, so
# the profiler reads its clock once for the pair. A second copy of the
# sequence would bring back task_end + task_switch and the second read.
# Prints every completion hook called outside that function.
if awk '/fn run_task[<(]/ { on = 1; match($0, /^ */); end = substr($0, 1, RLENGTH) "}" }
        !on && /\.(task_end|task_end_resume|task_abort)\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        on && $0 == end { on = 0 }
        END { exit !bad }' crates/taskrt/src/*.rs; then
    echo "a task completion hook is called outside WorkerState::run_task"; exit 1
fi

echo "=== one seeded generator ==="
# pomp::SplitMix64 (crates/pomp/src/rng.rs) is the one generator: BOTS
# inputs, simsched schedules, disk-fault plans and export jitter draw from
# it, and every property test draws from simsched's ChoiceStream over it
# (test_util::prop). Four copies of splitmix64 and a vendored proptest
# that seeded each run at random stood beside it.
if git grep -niE '9E37_?79B9_?7F4A_?7C15' -- '*.rs' ':!crates/pomp/src/rng.rs'; then
    echo "a second splitmix64 is back outside crates/pomp/src/rng.rs"; exit 1
fi
if git grep -n proptest -- '*Cargo.toml' '*Cargo.lock' || git grep -nE '^[[:space:]]*use proptest' -- '*.rs'; then
    echo "proptest is back"; exit 1
fi

echo "=== no vendored stub is a workspace member ==="
# The stubs under vendor/ stand in for registry crates and are built only
# as path dependencies. Cargo matches `exclude` by path prefix, not by
# glob: `exclude = ["vendor/*"]` kept nothing out, and the workspace
# tests ran the stubs' own tests as this project's.
cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, sys
meta = json.load(sys.stdin)
vendor = meta["workspace_root"] + "/vendor/"
members = set(meta["workspace_members"])
stubs = [p["manifest_path"] for p in meta["packages"]
         if p["id"] in members and p["manifest_path"].startswith(vendor)]
for path in stubs:
    print(path)
sys.exit(1 if stubs else 0)
' || { echo "a vendored stub is a workspace member"; exit 1; }

echo "=== clippy (portable clock path) ==="
# Compile-check the non-TSC clock fallback other architectures take,
# without needing a cross toolchain (see crates/pomp/src/clock.rs).
RUSTFLAGS="--cfg taskprof_portable_clock" \
    cargo clippy -p pomp --all-targets -- -D warnings

echo "=== tests (portable clock path) ==="
# The workspace tests above ran pomp's clock tests on the TSC path; run
# them on the fallback too, so a change to `now()` is exercised on both.
RUSTFLAGS="--cfg taskprof_portable_clock" cargo test -q -p pomp

echo "=== repo benchmark smoke gate ==="
# BENCHMARK.json must be what the benchmark declares, and a --quick run
# of every workload, traced and untraced, must print exactly those
# metrics with every checked operation correct.
benchmark/check.sh
# check.sh builds only the binary; the package's tests implement the two
# store I/O traits a second time (benchmark/src/counting.rs), so a trait
# edit that breaks the benchmark fails here, not in the pipeline.
(cd benchmark && cargo test --release --offline -q)

echo "=== JSON ingest tripwire ==="
# A floor, not a target: the per-character whole-input scan in the JSON
# string parser held this at 18/s; the linear scanner measures ~1 600/s
# on this class of host. Only a returning quadratic gets under 200.
benchmark/run.sh --workload coarse_large --quick 2>/dev/null | tail -n 1 | python3 -c '
import json, sys
rate = json.loads(sys.stdin.read())["metrics"]["ingest_json_profiles_per_s"]["value"]
assert rate >= 200, f"ingest_json_profiles_per_s {rate:.0f} < 200 on coarse_large"
print(f"ok coarse_large ingest_json_profiles_per_s {rate:.0f} >= 200")
'

echo "=== causal report tripwire ==="
# A ceiling, not a target: per-vertex hashing and allocation held this at
# ~350; the flat builder ordered by index runs measures 40-50 on this
# class of host. Only their return gets above 200.
benchmark/run.sh --workload fine_small --quick 2>/dev/null | tail -n 1 | python3 -c '
import json, sys
ms = json.loads(sys.stdin.read())["metrics"]["causal_report_ms"]["value"]
assert ms <= 200, f"causal_report_ms {ms:.0f} > 200 on fine_small"
print(f"ok fine_small causal_report_ms {ms:.0f} <= 200")
'

echo "=== live telemetry smoke ==="
# Polls the lock-free gauges while nqueens runs, then asserts both
# exporters round-trip and the HWM gauge matches the profile.
cargo run --release --example live_telemetry | tee /tmp/live_telemetry.out
grep -q "LIVE_TELEMETRY_OK" /tmp/live_telemetry.out

echo "=== trace analysis smoke ==="
# The trace is the session's own edge log, read by the critpath walk;
# the analysis must come out the other end of the CLI.
cargo run --release --bin taskprof-cli -- run fib --scale test --threads 2 --trace \
    | tee /tmp/trace.out
grep -q 'trace analysis (' /tmp/trace.out \
    || { echo "run --trace printed no trace analysis"; exit 1; }
grep -q 'management/work ratio' /tmp/trace.out \
    || { echo "trace analysis missing the management/work ratio"; exit 1; }

echo "=== schedule exploration smoke ==="
# Deterministic simulated schedules over the built-in workloads, every
# run checked against the paper's profile invariants plus a differential
# live-vs-replay comparison. TASKPROF_EXPLORE_SEEDS scales the sweep
# (nightly runs use hundreds; the smoke default keeps CI fast).
TASKPROF_EXPLORE_SEEDS="${TASKPROF_EXPLORE_SEEDS:-32}" \
    cargo run --release --bin taskprof-cli -- explore --threads 2 --workload all --dfs 100

echo "=== causal what-if smoke (replay-checked prediction) ==="
# Predict the makespan with the task region 3x faster, then replay the
# same seed with the work actually scaled: --validate exits nonzero
# unless the replayed makespan equals the prediction exactly.
cargo run --release --bin taskprof-cli -- whatif \
    --workload div --seed 11 --threads 2 \
    --region 'sim-div-3!task' --speedup 3 --validate | tee /tmp/whatif.out
grep -q 'predicted makespan' /tmp/whatif.out \
    || { echo "what-if printed no prediction"; exit 1; }
grep -q 'replay reproduced the prediction exactly' /tmp/whatif.out \
    || { echo "what-if replay validation missing"; exit 1; }
cargo run --release --bin taskprof-cli -- critpath \
    --workload div --seed 11 --threads 2 | tee /tmp/critpath.out
grep -q 'parallelism' /tmp/critpath.out \
    || { echo "critpath report missing parallelism"; exit 1; }

echo "=== profile repository smoke ==="
# Serve an empty store on an ephemeral port, ingest two deterministic
# seeded runs over TCP, then gate on the regression query: a candidate
# re-measured from the same seed must not regress against its own
# baseline (exit 3 would mean the daemon flagged a regression).
REPO_DIR="$(mktemp -d /tmp/profrepo-smoke.XXXXXX)"
PORT_FILE="$REPO_DIR/port"
cargo run --release --bin taskprof-cli -- serve \
    --dir "$REPO_DIR/store" --addr 127.0.0.1:0 --port-file "$PORT_FILE" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$REPO_DIR"' EXIT
for _ in $(seq 1 300); do [ -s "$PORT_FILE" ] && break; sleep 0.2; done
[ -s "$PORT_FILE" ] || { echo "serve daemon never published its port"; exit 1; }
ADDR="127.0.0.1:$(cat "$PORT_FILE")"
# Both wire protocols store runs in one log (tests/wire_e2e.rs checks
# that they answer every query alike).
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$ADDR" --app fib --seed 41 --runs 2 --threads 2 --proto bin
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$ADDR" --app fib --seed 43 --runs 1 --threads 2 --proto json
cargo run --release --bin taskprof-cli -- query top \
    --addr "$ADDR" --bench fib --threads 2 --proto bin | tee /tmp/top.bin.out
grep -q '"runs":3' /tmp/top.bin.out \
    || { echo "expected 3 runs across both protocols"; exit 1; }
cargo run --release --bin taskprof-cli -- query regress \
    --addr "$ADDR" --bench fib --threads 2 --app fib --seed 41

echo "=== live subscription smoke ==="
# One subscriber per wire protocol; each must observe the ingest
# notification pushed mid-stream plus periodic telemetry snapshots.
# Use the already-built binary directly: cargo's file locks would delay
# the watchers' attach. The watchers run until killed (no --frames: a
# fixed window can close before the ingest lands on a loaded host);
# their stdout is line-buffered, so the files can be polled.
CLI=target/release/taskprof-cli
"$CLI" watch \
    --addr "$ADDR" --proto json --interval-ms 200 --format jsonl \
    > /tmp/watch.json.out &
WATCH_JSON_PID=$!
"$CLI" watch \
    --addr "$ADDR" --proto bin --interval-ms 200 --format jsonl \
    > /tmp/watch.bin.out &
WATCH_BIN_PID=$!
trap 'kill "$SERVE_PID" "$WATCH_JSON_PID" "$WATCH_BIN_PID" 2>/dev/null || true; rm -rf "$REPO_DIR"' EXIT
# Hold the upload until both subscribers are attached, so the fan-out
# provably reaches them.
for _ in $(seq 1 100); do
    "$CLI" query stats --prometheus --addr "$ADDR" > /tmp/prom.out
    SUBS=$(awk '$1 == "profserve_subscriptions_total" { print $2 }' /tmp/prom.out)
    [ "${SUBS:-0}" -ge 2 ] && break
    sleep 0.1
done
[ "${SUBS:-0}" -ge 2 ] || { echo "subscribers never attached"; exit 1; }
"$CLI" ingest \
    --addr "$ADDR" --app fib --seed 45 --runs 1 --threads 2 --proto bin
# Names the first (watcher, event) pair not seen yet; empty once both
# watchers have printed both kinds of event.
missing_event() {
    for OUT in /tmp/watch.json.out /tmp/watch.bin.out; do
        for EVENT in ingest telemetry; do
            grep -q "\"event\":\"$EVENT\"" "$OUT" \
                || { echo "$OUT: no $EVENT event observed"; return; }
        done
    done
}
for _ in $(seq 1 300); do
    MISSING=$(missing_event)
    [ -z "$MISSING" ] && break
    sleep 0.1
done
kill "$WATCH_JSON_PID" "$WATCH_BIN_PID" 2>/dev/null || true
wait "$WATCH_JSON_PID" "$WATCH_BIN_PID" 2>/dev/null || true
[ -z "$MISSING" ] || { echo "$MISSING"; exit 1; }
# The Prometheus scrape must expose the request-latency histograms.
"$CLI" query stats --prometheus --addr "$ADDR" > /tmp/prom.out
grep -q '^profserve_request_latency_ns_bucket' /tmp/prom.out \
    || { echo "no latency histogram in prometheus scrape"; exit 1; }
grep -q '^profserve_store_runs' /tmp/prom.out \
    || { echo "no store gauges in prometheus scrape"; exit 1; }

echo "=== resilient export smoke (spool while down, drain when back) ==="
# Daemon still up: an ingest pointed at a *dead* port with --spool must
# exit 0 and leave a frame file; `drain` against the live daemon must
# deliver it exactly once and empty the spool.
SPOOL_DIR="$REPO_DIR/spool"
DEAD_ADDR="127.0.0.1:1"
cargo run --release --bin taskprof-cli -- ingest \
    --addr "$DEAD_ADDR" --app fib --seed 77 --runs 1 --threads 2 \
    --spool "$SPOOL_DIR" --deadline-ms 500
FRAMES=$(find "$SPOOL_DIR" -name '*.frame' | wc -l)
[ "$FRAMES" -eq 1 ] || { echo "expected 1 spooled frame, found $FRAMES"; exit 1; }
cargo run --release --bin taskprof-cli -- drain --addr "$ADDR" --spool "$SPOOL_DIR"
FRAMES=$(find "$SPOOL_DIR" -name '*.frame' | wc -l)
[ "$FRAMES" -eq 0 ] || { echo "spool not drained: $FRAMES frame(s) left"; exit 1; }
# Draining an empty spool is a no-op success (exactly-once).
cargo run --release --bin taskprof-cli -- drain --addr "$ADDR" --spool "$SPOOL_DIR"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

echo "=== replication smoke (two daemons, auth, sharded follower) ==="
# A leader and a sharded follower on ephemeral ports, both requiring the
# shared secret; `replicate` pumps the leader's log over, and the
# replicas must answer the canonical query byte-identically. A second
# pump must be exactly-once (nothing new to apply).
LEAD_PORT_FILE="$REPO_DIR/lead-port"
FOLW_PORT_FILE="$REPO_DIR/folw-port"
"$CLI" serve --dir "$REPO_DIR/leader" --addr 127.0.0.1:0 \
    --port-file "$LEAD_PORT_FILE" --auth hunter2 &
LEAD_PID=$!
"$CLI" serve --dir "$REPO_DIR/follower" --addr 127.0.0.1:0 \
    --port-file "$FOLW_PORT_FILE" --auth hunter2 --shards 2 --keep-last 100 &
FOLW_PID=$!
trap 'kill "$SERVE_PID" "$LEAD_PID" "$FOLW_PID" 2>/dev/null || true; rm -rf "$REPO_DIR"' EXIT
for _ in $(seq 1 300); do
    [ -s "$LEAD_PORT_FILE" ] && [ -s "$FOLW_PORT_FILE" ] && break
    sleep 0.2
done
{ [ -s "$LEAD_PORT_FILE" ] && [ -s "$FOLW_PORT_FILE" ]; } \
    || { echo "replication daemons never published their ports"; exit 1; }
LEAD_ADDR="127.0.0.1:$(cat "$LEAD_PORT_FILE")"
FOLW_ADDR="127.0.0.1:$(cat "$FOLW_PORT_FILE")"
# The wrong secret must be refused before any data moves.
if "$CLI" query stats --addr "$LEAD_ADDR" --auth wrong 2>/dev/null; then
    echo "wrong secret was accepted"; exit 1
fi
"$CLI" ingest --addr "$LEAD_ADDR" --app fib --seed 61 --runs 3 --threads 2 \
    --proto bin --auth hunter2
"$CLI" replicate --from "$LEAD_ADDR" --to "$FOLW_ADDR" --auth hunter2 --batch 2
"$CLI" query top --addr "$LEAD_ADDR" --bench fib --threads 2 --auth hunter2 \
    > /tmp/top.lead.out
"$CLI" query top --addr "$FOLW_ADDR" --bench fib --threads 2 --auth hunter2 \
    > /tmp/top.folw.out
cmp /tmp/top.lead.out /tmp/top.folw.out \
    || { echo "replica query output diverges from the leader"; exit 1; }
grep -q '"runs":3' /tmp/top.folw.out \
    || { echo "follower missed replicated runs"; exit 1; }
"$CLI" replicate --from "$LEAD_ADDR" --to "$FOLW_ADDR" --auth hunter2 \
    | tee /tmp/replicate.out
grep -q ' 0 frame(s) applied' /tmp/replicate.out \
    || { echo "re-pump was not a no-op"; exit 1; }
kill "$LEAD_PID" "$FOLW_PID" 2>/dev/null || true
wait "$LEAD_PID" 2>/dev/null || true
wait "$FOLW_PID" 2>/dev/null || true

echo "=== fault-injection torture (pinned seed) ==="
# Crash-at-every-injection-point over the store's VFS seam — single
# store, plus the sharded leader/follower replication sweeps; the pinned
# seed keeps nightly logs comparable while the in-tree seeds rotate.
TASKPROF_TORTURE_SEED="${TASKPROF_TORTURE_SEED:-20260808}" \
    cargo test --release --test profstore_torture -q

echo "CI_OK"
