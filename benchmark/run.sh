#!/usr/bin/env bash
# Open-loop accuracy-at-deadline benchmark for at_server.
#
#   benchmark/run.sh [--workload steady|hot|burst|churn|all] [--seed S]
#                    [--seconds T] [--trace [0|1]]
#
# Builds at_server and the at_bench driver from this checkout into
# build-bench/ (Release), then runs one workload, or each in turn. Every
# metric prints as "name value unit"; the last line of each run is its
# JSON result. --trace reports the per-layer metrics instead of the
# end-to-end ones and writes build-bench/results/<workload>.trace.json.
# Exits non-zero on a build error, a wrong answer, a failed operation or
# an invalid run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build-bench"

workload=steady
seed=1
seconds=15
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
# Configure once; later runs only rebuild what changed.
if ! { { [[ -f "$build/Makefile" || -f "$build/build.ninja" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" --target at_bench at_server -j "$(nproc)"; \
     } >"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 3
fi

commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

if [[ "$workload" == all ]]; then
  workloads=(steady hot burst churn)
else
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  "$build/at_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --server "$build/repo/at_server" \
    --results "$build/results" --commit "$commit" || status=1
done
exit "$status"
