// Microbench for the fused rating kernel and the thread-pool parallel
// scan engine.
//
// Three experiments:
//  1. rating kernel: ns/op of the fused single-pass Synopsis::RateCounts
//     against the three-pass baseline (IntersectCount + 2x AndNotCount)
//     it replaced, across synopsis widths;
//  2. insert scan: insert throughput into a DBpedia-shaped table whose
//     catalog is large enough that the unrestricted rating scan dominates,
//     at scan_threads in {1, 2, 4}, with a placement-identity check
//     (parallel placements must be bit-identical to serial);
//  3. query scan: QueryExecutor::Execute throughput over the >=100k-row
//     universal table at scan degrees {1, 2, 4}, with a metrics-identity
//     check.
//
// Emits BENCH_rating.json (one trajectory point per run) next to the
// binary's working directory, plus a human-readable table on stdout.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 100000),
//        CINDERELLA_BENCH_KERNEL_BITS (default 65536),
//        CINDERELLA_BENCH_TAIL_INSERTS (default 2000),
//        CINDERELLA_BENCH_QUERY_REPS (default 5).

#include <cinttypes>
#include <cstdint>
#include <thread>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/cinderella.h"
#include "core/rating.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "query/query.h"
#include "synopsis/synopsis.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

Synopsis RandomSynopsis(Rng& rng, size_t universe_bits, double density) {
  Synopsis s;
  const size_t bits = static_cast<size_t>(
      static_cast<double>(universe_bits) * density);
  for (size_t i = 0; i < bits; ++i) {
    s.Add(static_cast<AttributeId>(rng.Uniform(universe_bits)));
  }
  // Pin the top bit so both operands span the full word count.
  s.Add(static_cast<AttributeId>(universe_bits - 1));
  return s;
}

struct KernelResult {
  size_t bits = 0;
  double fused_ns = 0.0;
  double three_pass_ns = 0.0;
  double speedup = 0.0;
};

/// Times the fused kernel against the three-pass baseline on one operand
/// width. The checksum keeps the compiler from eliding either loop and is
/// asserted equal between the two variants (same counts either way).
KernelResult TimeKernel(size_t universe_bits, int iterations) {
  Rng rng(7);
  const Synopsis entity = RandomSynopsis(rng, universe_bits, 0.2);
  const Synopsis partition = RandomSynopsis(rng, universe_bits, 0.3);

  uint64_t fused_sum = 0;
  WallTimer timer;
  for (int i = 0; i < iterations; ++i) {
    const Synopsis::RatingCounts counts = entity.RateCounts(partition);
    fused_sum += counts.intersect + 2 * counts.only_this +
                 3 * counts.only_other;
  }
  const double fused_seconds = timer.ElapsedSeconds();

  uint64_t three_sum = 0;
  timer.Restart();
  for (int i = 0; i < iterations; ++i) {
    three_sum += entity.IntersectCount(partition) +
                 2 * entity.AndNotCount(partition) +
                 3 * partition.AndNotCount(entity);
  }
  const double three_seconds = timer.ElapsedSeconds();

  if (fused_sum != three_sum) {
    std::fprintf(stderr, "FATAL: fused kernel disagrees with 3-pass\n");
    std::exit(1);
  }

  KernelResult result;
  result.bits = universe_bits;
  result.fused_ns = fused_seconds * 1e9 / iterations;
  result.three_pass_ns = three_seconds * 1e9 / iterations;
  result.speedup = result.fused_ns > 0.0
                       ? result.three_pass_ns / result.fused_ns
                       : 0.0;
  return result;
}

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

struct ScanPoint {
  int threads = 0;
  double ops_per_second = 0.0;
  double speedup = 0.0;  // vs the threads == 1 point.
  bool identical = true;
};

}  // namespace
}  // namespace cinderella

int main() {
  using namespace cinderella;
  using bench::PrintHeader;

  const size_t entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ENTITIES", 100000));
  const size_t kernel_bits = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_KERNEL_BITS", 65536));
  const int tail_inserts = static_cast<int>(
      Int64FromEnv("CINDERELLA_BENCH_TAIL_INSERTS", 2000));
  const int query_reps =
      static_cast<int>(Int64FromEnv("CINDERELLA_BENCH_QUERY_REPS", 5));
  const std::vector<int> thread_counts = {1, 2, 4};

  // ---- 1. Fused rating kernel vs the three-pass baseline. ----
  PrintHeader("rating kernel: fused RateCounts vs 3-pass baseline");
  std::vector<KernelResult> kernels;
  for (size_t bits : {size_t{512}, size_t{4096}, kernel_bits}) {
    // Scale iterations down for wide operands to keep wall time bounded.
    const int iterations = static_cast<int>(40000000 / (bits + 64));
    kernels.push_back(TimeKernel(bits, iterations));
    const KernelResult& k = kernels.back();
    std::printf("  %8zu bits: fused %8.1f ns  3-pass %8.1f ns  speedup %.2fx\n",
                k.bits, k.fused_ns, k.three_pass_ns, k.speedup);
  }

  // ---- Shared data set. ----
  DbpediaConfig dbconfig;
  dbconfig.num_entities = entities;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(dbconfig, &dictionary);
  const std::vector<Row> rows = generator.Generate();

  // ---- 2. Insert-side rating scan at varying scan_threads. ----
  PrintHeader("insert scan: rating throughput vs scan_threads");
  std::vector<ScanPoint> insert_points;
  uint64_t serial_fingerprint = 0;
  uint64_t serial_splits = 0;
  for (int threads : thread_counts) {
    CinderellaConfig config;
    config.weight = 0.3;
    config.max_size = 500;  // ~hundreds of partitions at 100k entities.
    config.scan_threads = threads;
    auto partitioner = std::move(Cinderella::Create(config)).value();
    for (const Row& row : rows) {
      if (!partitioner->Insert(Row(row)).ok()) return 1;
    }
    // Steady-state tail: fresh entities against the full catalog; this is
    // the regime where the unrestricted scan dominates insert cost.
    Rng rng(13);
    std::vector<Row> tail;
    tail.reserve(static_cast<size_t>(tail_inserts));
    for (int i = 0; i < tail_inserts; ++i) {
      Row row(static_cast<EntityId>(10000000 + i));
      const int attrs = 2 + static_cast<int>(rng.Uniform(8));
      for (int a = 0; a < attrs; ++a) {
        row.Set(static_cast<AttributeId>(rng.Uniform(dbconfig.num_attributes)),
                Value(static_cast<int64_t>(rng.Uniform(1000))));
      }
      tail.push_back(std::move(row));
    }
    WallTimer timer;
    for (Row& row : tail) {
      if (!partitioner->Insert(std::move(row)).ok()) return 1;
    }
    const double seconds = timer.ElapsedSeconds();

    ScanPoint point;
    point.threads = threads;
    point.ops_per_second = tail_inserts / seconds;
    if (threads == 1) {
      serial_fingerprint = GroupingFingerprint(*partitioner);
      serial_splits = partitioner->stats().splits;
      point.speedup = 1.0;
    } else {
      point.identical =
          GroupingFingerprint(*partitioner) == serial_fingerprint &&
          partitioner->stats().splits == serial_splits;
      point.speedup = point.ops_per_second / insert_points[0].ops_per_second;
    }
    insert_points.push_back(point);
    std::printf("  threads %d: %9.0f inserts/s  speedup %.2fx  %s  "
                "(%zu partitions)\n",
                point.threads, point.ops_per_second, point.speedup,
                point.identical ? "identical" : "MISMATCH",
                partitioner->catalog().partition_count());
  }

  // ---- 3. Query-side partition scan at varying executor degree. ----
  PrintHeader("query scan: Execute throughput vs scan degree");
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 500;
  config.scan_threads = 1;
  config.use_synopsis_tree = false;  // Flat query scan: no tree pruning.
  auto partitioner = std::move(Cinderella::Create(config)).value();
  for (const Row& row : rows) {
    if (!partitioner->Insert(Row(row)).ok()) return 1;
  }
  // Queries spanning the frequency spectrum: near-universal attributes
  // (unselective, scans almost everything) down to tail attributes.
  std::vector<Query> queries;
  for (AttributeId a = 0;
       a < static_cast<AttributeId>(dbconfig.num_attributes); a += 7) {
    queries.emplace_back(Synopsis{a, a + 1, a + 2});
  }
  std::vector<ScanPoint> query_points;
  uint64_t serial_rows_scanned = 0;
  uint64_t serial_cells = 0;
  VersionedTable versioned(partitioner.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  for (int threads : thread_counts) {
    QueryExecutor executor(snapshot.view(), threads);
    uint64_t rows_scanned = 0;
    uint64_t cells = 0;
    WallTimer timer;
    for (int rep = 0; rep < query_reps; ++rep) {
      for (const Query& query : queries) {
        const QueryResult result = executor.Execute(query);
        rows_scanned += result.metrics.rows_scanned;
        cells += result.cells_materialized;
      }
    }
    const double seconds = timer.ElapsedSeconds();

    ScanPoint point;
    point.threads = threads;
    point.ops_per_second = static_cast<double>(rows_scanned) / seconds;
    if (threads == 1) {
      serial_rows_scanned = rows_scanned;
      serial_cells = cells;
      point.speedup = 1.0;
    } else {
      point.identical =
          rows_scanned == serial_rows_scanned && cells == serial_cells;
      point.speedup = point.ops_per_second / query_points[0].ops_per_second;
    }
    query_points.push_back(point);
    std::printf("  threads %d: %12.0f rows/s  speedup %.2fx  %s\n",
                point.threads, point.ops_per_second, point.speedup,
                point.identical ? "identical" : "MISMATCH");
  }

  // ---- Trajectory point. ----
  FILE* json = std::fopen("BENCH_rating.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_rating.json\n");
    return 1;
  }
  auto write_points = [&](const char* name,
                          const std::vector<ScanPoint>& points) {
    std::fprintf(json, "  \"%s\": [", name);
    for (size_t i = 0; i < points.size(); ++i) {
      std::fprintf(json,
                   "%s\n    {\"threads\": %d, \"ops_per_second\": %.1f, "
                   "\"speedup_vs_serial\": %.3f, \"identical\": %s}",
                   i == 0 ? "" : ",", points[i].threads,
                   points[i].ops_per_second, points[i].speedup,
                   points[i].identical ? "true" : "false");
    }
    std::fprintf(json, "\n  ]");
  };
  std::fprintf(json, "{\n  \"bench\": \"micro_rating\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n", entities);
  // Scan speedups are only meaningful relative to the cores available:
  // on a single-CPU host every degree > 1 measures pure pool overhead.
  bench::WriteHostMetadata(json);
  std::fprintf(json, "  \"rating_kernel\": [");
  for (size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(json,
                 "%s\n    {\"bits\": %zu, \"fused_ns\": %.2f, "
                 "\"three_pass_ns\": %.2f, \"speedup\": %.3f}",
                 i == 0 ? "" : ",", kernels[i].bits, kernels[i].fused_ns,
                 kernels[i].three_pass_ns, kernels[i].speedup);
  }
  std::fprintf(json, "\n  ],\n");
  write_points("insert_scan", insert_points);
  std::fprintf(json, ",\n");
  write_points("query_scan", query_points);
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_rating.json\n");
  return 0;
}
