#!/usr/bin/env bash
# Full reproduction pipeline: build, test, regenerate every table/figure
# (console tables + shape checks, CSVs and SVGs), and archive the outputs.
#
#   scripts/reproduce.sh [--threads N] [output-dir]
#
# --threads N runs each experiment matrix with N worker threads (0 = all
# hardware threads); results are bit-identical to the serial run.
# Exits non-zero if any test or any paper shape-check fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
threads=1
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --threads) threads="$2"; shift 2 ;;
    --threads=*) threads="${1#--threads=}"; shift ;;
    *) out="$1"; shift ;;
  esac
done
out="${out:-$repo/reproduction-output}"
mkdir -p "$out"

echo "== configure + build"
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j >/dev/null

echo "== tests"
ctest --test-dir "$repo/build" --output-on-failure 2>&1 | tee "$out/test_output.txt" | tail -3

echo "== tables and figures"
status=0
for bench in "$repo"/build/bench/bench_*; do
  name="$(basename "$bench")"
  echo "-- $name"
  args=("--threads=$threads")
  case "$name" in
    bench_fig3_response_and_data)
      # The fig-3 bench also re-runs the paper's winning cell with the
      # observability stack attached: Perfetto trace, per-site/per-link
      # metrics, per-job spans, wall-clock event-loop profile.
      args+=("--csv=$out/$name.csv" "--svg-prefix=$out/"
             "--trace-out=$out/fig3_trace.json"
             "--site-metrics-out=$out/fig3_site_metrics.csv"
             "--spans-csv=$out/fig3_spans.csv" "--profile=1") ;;
    bench_fig4_idle_time|bench_fig5_bandwidth)
      args+=("--csv=$out/$name.csv" "--svg-prefix=$out/") ;;
  esac
  if ! "$bench" "${args[@]}" > "$out/$name.txt" 2>&1; then
    echo "   SHAPE CHECK FAILURE (see $out/$name.txt)"
    status=1
  else
    tail -1 "$out/$name.txt" | sed 's/^/   /'
  fi
done

echo "== done: outputs in $out"
exit "$status"
