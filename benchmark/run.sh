#!/usr/bin/env bash
# Build the benchmark (its own package, offline) and run it from the
# repository root. Arguments go to the binary unchanged:
#
#   benchmark/run.sh --workload fine_small|coarse_large|all [--seed N]
#                    [--seconds S | --quick] [--trace 0|1] [--out F]
#   benchmark/run.sh compare A.jsonl B.jsonl
#   benchmark/run.sh spec
#
# The build needs ../crates and ../vendor; without them it fails and
# this script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/taskprof-benchmark" "$@"
