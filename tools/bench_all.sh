#!/usr/bin/env bash
# Runs every trajectory bench (the BENCH_*.json emitters) and collects the
# JSON points in the repo root. Each point carries host metadata (core
# count, build flags, CINDERELLA_* env) written by bench::WriteHostMetadata,
# so numbers from different machines and build flavors stay comparable.
#
# Usage: tools/bench_all.sh [--smoke] [jobs]   (jobs defaults to nproc)
#   --smoke  tiny problem sizes, run in a scratch directory: verifies that
#            every bench still runs end-to-end and emits parseable JSON
#            without disturbing the real BENCH_*.json trajectory points.
#            Used by tools/tier1.sh; numbers from a smoke run mean nothing.
# Knobs: every CINDERELLA_BENCH_* variable passes straight through to the
#        benches (see the header comment of each bench/micro_*.cc).
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
JOBS=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) JOBS="$arg" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

BENCHES=(micro_rating micro_insert micro_update micro_readers micro_scan
         micro_groupby micro_tuner micro_net pagestore_pruning)

echo "== bench-all: build =="
cmake -B build -S .
cmake --build build -j "$JOBS" --target "${BENCHES[@]}"

if [[ "$SMOKE" -eq 1 ]]; then
  # Tiny sizes shared by every bench that reads them; unknown knobs are
  # ignored by benches that don't.
  export CINDERELLA_BENCH_ENTITIES=2000
  export CINDERELLA_BENCH_TAIL_INSERTS=400
  export CINDERELLA_BENCH_TAIL_UPDATES=400
  export CINDERELLA_BENCH_DURABLE_ROWS=128
  export CINDERELLA_BENCH_QUERY_REPS=3
  export CINDERELLA_BENCH_KERNEL_BITS=1000000
  export CINDERELLA_BENCH_DURATION_MS=200
  export CINDERELLA_BENCH_READERS=2
  export CINDERELLA_BENCH_CHURN_ROUNDS=3
  export CINDERELLA_BENCH_SCAN_REPS=3
  export CINDERELLA_BENCH_IDENTITY_ENTITIES=2000
  export CINDERELLA_BENCH_GROUPBY_REPS=1
  export CINDERELLA_BENCH_TICKS=6
  export CINDERELLA_BENCH_REPS=2
  export CINDERELLA_BENCH_NET_REPS=2
  SCRATCH="$(mktemp -d)"
  trap 'rm -rf "$SCRATCH"' EXIT
  ROOT="$PWD"
  for bench in "${BENCHES[@]}"; do
    echo "== bench-all (smoke): $bench =="
    (cd "$SCRATCH" && "$ROOT/build/bench/$bench")
  done
  echo "== bench-all (smoke): points =="
  ls -l "$SCRATCH"/BENCH_*.json
  exit 0
fi

# Benches write BENCH_*.json into the working directory; run them from the
# repo root so the trajectory points land next to ROADMAP.md.
for bench in "${BENCHES[@]}"; do
  echo "== bench-all: $bench =="
  "./build/bench/$bench"
done

echo "== bench-all: points =="
ls -l BENCH_*.json
