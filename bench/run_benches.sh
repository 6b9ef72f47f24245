#!/usr/bin/env bash
# Runs the telemetry-emitting benches at fixed seeds and collects their
# BENCH_<name>.json files in one place, so successive commits produce
# comparable telemetry (the CI perf job runs this script and uploads
# the JSON; running it locally refreshes the checked-in baselines at
# the repo root).
#
# Usage: bench/run_benches.sh [build-dir] [json-dir]
#   build-dir  CMake build tree holding the bench binaries (default: build)
#   json-dir   where BENCH_*.json land (default: the repo root)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
json_dir=${2:-"$repo_root"}

for bin in micro_memory micro_codec micro_ml micro_serve; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin not built (cmake --build $build_dir --target $bin)" >&2
    exit 1
  fi
done

mkdir -p "$json_dir"
export URMEM_BENCH_JSON_DIR="$json_dir"
"$build_dir/bench/micro_memory" --pcell=5e-2 --seed=1 --min-time-ms=300
"$build_dir/bench/micro_codec" --seed=1 --min-time-ms=100
"$build_dir/bench/micro_ml" --seed=7 --min-time-ms=300
"$build_dir/bench/micro_serve" --clients=4 --requests=200000 --seed=1 > /dev/null

echo "bench telemetry in $json_dir:" >&2
ls -1 "$json_dir"/BENCH_*.json >&2
