#!/usr/bin/env bash
# Smoke gate, about a minute: BENCHMARK.json must be what `spec` prints,
# and a --quick run of every workload in both modes must print exactly
# the metrics BENCHMARK.json names, with correct == true and failed == 0.
set -euo pipefail
cd "$(dirname "$0")/.."

benchmark/run.sh spec | diff - BENCHMARK.json

for trace in 0 1; do
    for workload in fine_small coarse_large; do
        benchmark/run.sh --workload "$workload" --quick --trace "$trace" 2>/dev/null |
            tail -n 1 |
            python3 -c '
import json, sys
trace, workload = sys.argv[1] == "1", sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
run = json.loads(sys.stdin.read())
assert set(run) == {"correct", "attempted", "failed", "metrics"}, sorted(run)
got = {name: m["unit"] for name, m in run["metrics"].items()}
assert got == want, sorted(set(got) ^ set(want))
assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1, run
if not trace:
    zero = [n for n, m in run["metrics"].items() if m["value"] == 0]
    assert not zero, zero
checked = run["attempted"]
print(f"ok {workload} trace={int(trace)}: {len(got)} metrics, {checked} operations checked")
' "$trace" "$workload"
    done
done
