#!/usr/bin/env bash
# The whole benchmark in one command: builds warpbench, runs every workload
# N times untraced (seeds 1..N) and once traced (seed 1), prints
# `workload metric value unit` (medians over the runs), and exits non-zero
# when any run fails a check or a cross-run check fails (t1 and t4 hashes
# equal, traced hash equal to untraced hash).
#
#   bench/warpbench/run.sh [N] [OUT_DIR]
#
# Results default to build-bench/warpbench/runs (build and benchmark logs
# in run.log there); compare two result directories with
# bench/warpbench/compare.py.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
runs="${1:-5}"
out="${2:-$root/build-bench/warpbench/runs}"

read -r seconds workloads < <(python3 - "$root/BENCHMARK.json" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
EOF
)

mkdir -p "$out"
for workload in $workloads; do
  for seed in $(seq 1 "$runs"); do
    python3 "$here/run.py" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 --out "$out" 2>>"$out/run.log" |
      tail -n 1
  done
  python3 "$here/run.py" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 1 --out "$out" 2>>"$out/run.log" |
    tail -n 1
done

python3 "$here/compare.py" --summary "$out"
python3 "$here/compare.py" --check "$out"
