#!/bin/bash
# The full gate, in one command. Tier-1 (`cargo test -q`, the root
# package's tests/*.rs) already holds the checks that need no more than a
# build: the architecture table in tests/architecture.rs, which fails when
# a removed shape (a second recorder, a hashing DAG, a decoding ingest, a
# vendored stub as a workspace member, ...) comes back, and the end-to-end
# runs of taskprof-cli and its daemons in tests/cli.rs. This script adds
# what tier-1 cannot: the format check, every workspace member's unit
# tests and doctests, lint-clean clippy, the portable clock path, the
# repo benchmark's smoke gate and package tests, a floor under JSON
# ingest throughput, a ceiling over the causal report, and the crash
# torture at a pinned seed.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== build (release) ==="
cargo build --release

echo "=== format ==="
# One layout for the whole tree: rustfmt's defaults, no rustfmt.toml.
cargo fmt --all --check

echo "=== tests (every workspace member) ==="
# Without --workspace a root manifest with a [package] tests only that
# package (tests/*.rs): the unit tests inside crates/*/src and the
# doctests would be gated by nothing.
cargo test -q --workspace

echo "=== clippy (workspace, all targets) ==="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "=== fault-injection torture (pinned seed) ==="
# Crash-at-every-injection-point over the store's VFS seam (single
# store, a GC of the newest run, and the sharded leader/follower
# replication sweeps) in a release build, with one pinned seed added to
# the fixed in-tree ones.
TASKPROF_TORTURE_SEED="${TASKPROF_TORTURE_SEED:-20260808}" \
    cargo test --release --test profstore_torture -q

echo "CI_OK"
