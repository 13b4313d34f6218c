#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, a smoke run
# of every trajectory bench (tiny sizes — catches bitrot in the BENCH_*
# emitters without paying for real numbers), then a
# thread-sanitized side build of the scan engine (thread pool, parallel
# rating scan, parallel query executor), the MVCC read engine, and the
# networked node-server path (loopback TCP clients vs the acceptor/worker
# pool while snapshots republish) to catch
# data races the regular build cannot, then an address-sanitized build of
# the MVCC tests with leak detection on — epoch-based deferred
# reclamation must free every retired version's buffer exactly once, and
# never while a pinned reader can still reach it. The tiered
# cold store runs in both side builds: its spill/fault cycles and
# snapshot readers over a spilling writer under TSan, and chain/page
# ownership under ASan with leak detection. The ASan build also runs the
# decoders of outside bytes (snapshot load, journal recovery, the wire
# codec, and the page decoder with the fd pager under it) and the
# networked gather: a node encodes its response from views
# into the pinned snapshot until the last row batch is sent, so ASan is
# what shows that no view outlives that snapshot. A final
# UBSan side build (fatal, no recover) covers the aggregation engine's
# atomics, hashing, and double->int64 truncation paths.
#
# Usage: tools/tier1.sh [--fast] [jobs]   (jobs defaults to nproc)
#   --fast   skip the multi-threaded stress binaries (the TSan/ASan
#            builds still run the deterministic engine tests); for quick
#            local iteration, not for sign-off.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
JOBS=""
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) JOBS="$arg" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

# Every ctest/test invocation gets an explicit wall-clock cap so a hung
# stress test fails the tier instead of wedging it.
CTEST_TIMEOUT=300

echo "== tier-1: standard build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS" --timeout "$CTEST_TIMEOUT")

echo "== tier-1: bench smoke (tiny sizes, scratch dir) =="
tools/bench_all.sh --smoke "$JOBS"

echo "== tier-1: TSan build of the scan + ingest engine tests =="
TSAN_TARGETS=(thread_pool_test parallel_scan_test aggregator_test ingest_test mutation_pipeline_test synopsis_tree_test mvcc_test tuner_test net_cluster_test)
if [[ "$FAST" -eq 0 ]]; then
  TSAN_TARGETS+=(ingest_concurrency_test mvcc_stress_test tuner_stress_test net_stress_test tiered_stress_test)
fi
cmake -B build-tsan -S . -DCINDERELLA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TARGETS[@]}"
# Force the pools to spawn real workers even on small machines.
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/thread_pool_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/parallel_scan_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/aggregator_test
CINDERELLA_INSERT_SHARDS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/ingest_test
CINDERELLA_INSERT_SHARDS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/mutation_pipeline_test
# The query-side synopsis tree's copy-on-write contract: readers descend
# frozen roots while the publisher clones the shared spine; the batched
# writes behind it rate over four pipeline shards.
CINDERELLA_INSERT_SHARDS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/synopsis_tree_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/mvcc_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/tuner_test
# Coordinator/server round trips over loopback TCP under TSan: the
# acceptor, worker pool, and per-query snapshot pinning race-free.
CINDERELLA_NET_SERVER_THREADS=3 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/net_cluster_test
if [[ "$FAST" -eq 0 ]]; then
  CINDERELLA_INSERT_SHARDS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/ingest_concurrency_test
  CINDERELLA_STRESS_READERS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/mvcc_stress_test
  # The reorganizer daemon planning + applying while snapshot readers and
  # batch writers run: the tuner's whole concurrency contract under TSan.
  CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/tuner_stress_test
  # Concurrent clients vs one NodeServer while a writer republishes MVCC
  # snapshots: the whole server path under TSan.
  CINDERELLA_NET_SERVER_THREADS=3 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/net_stress_test
  # Snapshot readers fetching cold rows through the tier's buffer pool
  # while the writer spills and faults partitions: the tiered read path's
  # whole concurrency contract under TSan.
  CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-tsan/tests/tiered_stress_test
fi

echo "== tier-1: ASan+leak build of the MVCC read engine, decoder and gather tests =="
ASAN_TARGETS=(mvcc_test tuner_test tiered_store_test pagestore_test snapshot_test fuzz_recovery_test net_frame_test net_cluster_test)
if [[ "$FAST" -eq 0 ]]; then
  ASAN_TARGETS+=(mvcc_stress_test tuner_stress_test tiered_stress_test net_stress_test)
fi
cmake -B build-asan -S . -DCINDERELLA_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS" --target "${ASAN_TARGETS[@]}"
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/mvcc_test
# Drain+reinsert batches republish every drained row's partition; leak
# detection proves the daemon frees what it retires.
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/tuner_test
# Spill/fault cycles move rows between version buffers and page chains;
# leak detection proves chains release their pages on last reference and
# the out-of-core crash-recovery path frees every recovered version. The
# CatalogCapture tests live here too: a capture must free every version
# it built when it dies.
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/tiered_store_test
# Decoders of bytes from outside the process: snapshots (with their split
# starters), journals replayed after torn writes, wire frames (truncated
# and bit-flipped) and cold pages (corrupt slot count, offset or length)
# must fail cleanly, never read out of bounds.
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/pagestore_test
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/snapshot_test
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/fuzz_recovery_test
ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/net_frame_test
# Node responses are encoded from views into the pinned snapshot while
# frames go out; the coordinator merges the decoded per-node streams.
ASAN_OPTIONS=detect_leaks=1 CINDERELLA_NET_SERVER_THREADS=3 \
  timeout "$CTEST_TIMEOUT" ./build-asan/tests/net_cluster_test
if [[ "$FAST" -eq 0 ]]; then
  ASAN_OPTIONS=detect_leaks=1 CINDERELLA_STRESS_READERS=4 \
    timeout "$CTEST_TIMEOUT" ./build-asan/tests/mvcc_stress_test
  ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/tuner_stress_test
  ASAN_OPTIONS=detect_leaks=1 timeout "$CTEST_TIMEOUT" ./build-asan/tests/tiered_stress_test
  # Concurrent gathers against a server whose snapshots republish under
  # them: every response's views must stay inside its own pinned snapshot.
  ASAN_OPTIONS=detect_leaks=1 CINDERELLA_NET_SERVER_THREADS=3 \
    timeout "$CTEST_TIMEOUT" ./build-asan/tests/net_stress_test
fi

echo "== tier-1: UBSan build of the aggregation + scan engine tests =="
# The aggregator mixes atomics, hand-rolled hashing (splitmix64, FNV-1a),
# and double->int64 truncation; UBSan (fatal, no recover) proves none of
# it relies on undefined behavior at any strategy or thread count.
UBSAN_TARGETS=(aggregator_test thread_pool_test parallel_scan_test)
cmake -B build-ubsan -S . -DCINDERELLA_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ubsan -j "$JOBS" --target "${UBSAN_TARGETS[@]}"
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-ubsan/tests/aggregator_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-ubsan/tests/thread_pool_test
CINDERELLA_SCAN_THREADS=4 timeout "$CTEST_TIMEOUT" ./build-ubsan/tests/parallel_scan_test

echo "tier-1 OK"
