// Microbench for the MVCC read engine (src/mvcc): VersionedTable reader
// throughput and latency (epoch-pinned snapshots) with and without a
// concurrent ingest writer.
//
// The writer is *paced* to a fixed rows/second budget rather than running
// flat out: on a single-core host an unpaced writer and the readers would
// simply split the CPU and the comparison would measure scheduling, not
// reader interference. With a paced writer the retention ratio (queries/s
// with the writer over queries/s without) shows how much snapshot readers
// notice publication.
//
// Also re-checks the placement identity invariant end to end: a table
// loaded through the VersionedTable facade (batched engine, per-window
// publication) must group entities bit-identically to bare serial
// inserts.
//
// Emits BENCH_readers.json in the working directory plus a table on
// stdout.
//
// Two caveats worth knowing before reading the numbers:
//  - The writer's rows clone the attribute sets of resident entities.
//    Out-of-distribution rows would spawn singleton partitions and make
//    every query slower in the 1-writer configs — the retention ratio
//    would then measure catalog growth, not reader interference.
//  - At table sizes well past the last-level cache, COW publication
//    slowly fragments the snapshot's memory (replaced versions scatter
//    through the heap), and scan-bound readers lose locality. The
//    default size keeps the working set cache-resident so the ratio
//    isolates lock behaviour; raise CINDERELLA_BENCH_ENTITIES to see
//    the fragmentation regime.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 8000),
//        CINDERELLA_BENCH_READERS (default 2),
//        CINDERELLA_BENCH_DURATION_MS (default 1500),
//        CINDERELLA_BENCH_WRITE_RATE (default 150 rows/s),
//        CINDERELLA_BENCH_MAX_SIZE (default 50).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/cinderella.h"
#include "ingest/batch_inserter.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "query/query.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

/// Order-insensitive fingerprint of which entities share partitions.
uint64_t GroupingFingerprint(const Cinderella& c) {
  uint64_t fingerprint = 0;
  c.catalog().ForEachPartition([&](const Partition& partition) {
    uint64_t member_hash = 0;
    for (const Row& row : partition.segment().rows()) {
      member_hash += row.id() * 0x9e3779b97f4a7c15ULL + 1;
    }
    fingerprint ^= member_hash * 0xff51afd7ed558ccdULL;
  });
  return fingerprint;
}

/// Steady-state tail rows: fresh entities whose attribute sets clone
/// existing rows', so they merge into the established partitioning
/// instead of spawning singleton partitions. Keeps the 0-writer and
/// 1-writer configs querying near-identical catalogs — the retention
/// ratio then measures reader interference, not table growth.
std::vector<Row> MakeSteadyTail(size_t count, const std::vector<Row>& base,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> tail;
  tail.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Row row = base[rng.Uniform(base.size())];
    row.set_id(static_cast<EntityId>(20000000 + i));
    tail.push_back(std::move(row));
  }
  return tail;
}

struct ReaderPoint {
  int writers = 0;
  double queries_per_second = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double writer_rows_per_second = 0.0;
};

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Runs `readers` query threads for `duration_s` against `run_query`,
/// optionally alongside one paced writer (`write_row` consumes `tail`
/// rows at ~`write_rate` rows/s in bursts of 64). Fills `point`.
template <typename QueryFn, typename WriteFn>
void RunConfig(int readers, double duration_s, double write_rate,
               const std::vector<Row>& tail, bool with_writer,
               QueryFn run_query, WriteFn write_row, ReaderPoint* point) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::vector<double>& local = latencies[static_cast<size_t>(r)];
      local.reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed)) {
        WallTimer timer;
        run_query();
        local.push_back(timer.ElapsedSeconds() * 1e6);
      }
    });
  }

  // Both configs run the same pacing loop on this thread — the 0-writer
  // config just skips the table mutation. Identical thread count and
  // sleep/wake pattern keep the scheduler shape constant, so the delta
  // between the configs is the table's interference, not the harness's.
  uint64_t written = 0;
  size_t cursor = 0;
  WallTimer wall;
  while (wall.ElapsedSeconds() < duration_s) {
    if (with_writer) {
      for (int i = 0; i < 64 && cursor < tail.size(); ++i) {
        write_row(tail[cursor++]);
      }
    }
    written += 64;
    // Pace: sleep off any lead over the target rate.
    const double target_elapsed =
        static_cast<double>(written) / write_rate;
    const double lead = target_elapsed - wall.ElapsedSeconds();
    if (lead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(lead));
    }
  }
  const double elapsed = wall.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  std::vector<double> all;
  for (const auto& local : latencies) {
    all.insert(all.end(), local.begin(), local.end());
  }
  std::sort(all.begin(), all.end());
  point->writers = with_writer ? 1 : 0;
  point->queries_per_second = static_cast<double>(all.size()) / elapsed;
  point->p50_us = Percentile(all, 0.50);
  point->p95_us = Percentile(all, 0.95);
  point->writer_rows_per_second =
      with_writer ? static_cast<double>(cursor) / elapsed : 0.0;
}

}  // namespace
}  // namespace cinderella

int main() {
  using namespace cinderella;
  using bench::PrintHeader;

  const size_t entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ENTITIES", 8000));
  const int readers = static_cast<int>(
      Int64FromEnv("CINDERELLA_BENCH_READERS", 2));
  const double duration_s = static_cast<double>(Int64FromEnv(
      "CINDERELLA_BENCH_DURATION_MS", 1500)) / 1e3;
  const double write_rate = static_cast<double>(
      Int64FromEnv("CINDERELLA_BENCH_WRITE_RATE", 150));
  const uint64_t max_size = static_cast<uint64_t>(
      Int64FromEnv("CINDERELLA_BENCH_MAX_SIZE", 50));

  DbpediaConfig dbconfig;
  dbconfig.num_entities = entities;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(dbconfig, &dictionary);
  const std::vector<Row> base_rows = generator.Generate();

  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = max_size;

  const Query query(Synopsis{0, 3});
  const std::vector<Row> steady_tail = MakeSteadyTail(
      static_cast<size_t>(write_rate * duration_s) * 2 + 256, base_rows,
      99);
  std::vector<ReaderPoint> points;

  // ---- VersionedTable: epoch-pinned snapshot readers. ----
  PrintHeader("readers: VersionedTable (MVCC snapshots)");
  for (const bool with_writer : {false, true}) {
    auto partitioner = std::move(Cinderella::Create(config)).value();
    {
      std::vector<Row> base = base_rows;
      if (!partitioner->InsertBatch(std::move(base)).ok()) return 1;
    }
    VersionedTable table(std::move(partitioner));

    // The versioned writer feeds the batched engine in window-sized
    // bursts so each burst commits (and publishes) as one window.
    std::vector<Row> burst;
    burst.reserve(128);
    ReaderPoint point;
    RunConfig(
        readers, duration_s, write_rate, steady_tail, with_writer,
        [&] {
          const VersionedTable::Snapshot snapshot = table.snapshot();
          QueryExecutor executor(snapshot.view());
          (void)executor.Execute(query).metrics.rows_matched;
        },
        [&](Row row) {
          burst.push_back(std::move(row));
          if (burst.size() == 128) {
            if (!table.InsertBatch(std::move(burst)).ok()) std::abort();
            burst.clear();
          }
        },
        &point);
    points.push_back(point);
    std::printf("  %d writer: %8.0f queries/s  p50 %7.1f us  p95 %7.1f us"
                "  (writer %5.0f rows/s)\n",
                point.writers, point.queries_per_second, point.p50_us,
                point.p95_us, point.writer_rows_per_second);
  }

  // Acceptance watch: snapshot readers should barely notice the writer.
  const double versioned_ratio =
      points[1].queries_per_second / points[0].queries_per_second;
  std::printf("\n  concurrent-reader retention: VersionedTable %.2f "
              "(target >= 0.75)\n",
              versioned_ratio);

  // ---- Placement identity: facade-loaded vs bare serial. ----
  PrintHeader("identity: VersionedTable ingest vs serial inserts");
  const std::vector<Row> tail = MakeSteadyTail(2000, base_rows, 7);
  uint64_t serial_fingerprint = 0;
  {
    auto partitioner = std::move(Cinderella::Create(config)).value();
    std::vector<Row> rows = base_rows;
    if (!partitioner->InsertBatch(std::move(rows)).ok()) return 1;
    for (const Row& row : tail) {
      if (!partitioner->Insert(row).ok()) return 1;
    }
    serial_fingerprint = GroupingFingerprint(*partitioner);
  }
  bool identical = false;
  {
    auto partitioner = std::move(Cinderella::Create(config)).value();
    Cinderella* raw = partitioner.get();
    std::vector<Row> rows = base_rows;
    if (!raw->InsertBatch(std::move(rows)).ok()) return 1;
    VersionedTable table(std::move(partitioner));
    std::vector<Row> pending = tail;
    if (!table.InsertBatch(std::move(pending)).ok()) return 1;
    identical = GroupingFingerprint(table.partitioner()) ==
                serial_fingerprint;
  }
  std::printf("  %s\n", identical ? "identical" : "MISMATCH");

  // ---- Trajectory point. ----
  FILE* json = std::fopen("BENCH_readers.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_readers.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"micro_readers\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n", entities);
  std::fprintf(json, "  \"readers\": %d,\n", readers);
  std::fprintf(json, "  \"write_rate_target\": %.0f,\n", write_rate);
  // Reader/writer interference on a single-CPU host includes plain CPU
  // sharing; the host metadata's core count tells lock stalls from
  // scheduling.
  bench::WriteHostMetadata(json);
  std::fprintf(json, "  \"points\": [");
  for (size_t i = 0; i < points.size(); ++i) {
    const ReaderPoint& p = points[i];
    std::fprintf(json,
                 "%s\n    {\"table\": \"versioned\", \"writers\": %d, "
                 "\"queries_per_second\": %.1f, \"p50_us\": %.1f, "
                 "\"p95_us\": %.1f, \"writer_rows_per_second\": %.1f}",
                 i == 0 ? "" : ",", p.writers,
                 p.queries_per_second, p.p50_us, p.p95_us,
                 p.writer_rows_per_second);
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json, "  \"concurrent_reader_retention\": {"
               "\"versioned\": %.3f},\n",
               versioned_ratio);
  std::fprintf(json, "  \"placement_identical\": %s\n}\n",
               identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_readers.json\n");
  return 0;
}
