// Microbench for the arena-pooled snapshot storage (src/mvcc +
// common/arena.h): snapshot scan throughput, and publication latency cold
// (empty pools, every block malloc'ed) versus pooled (steady state, zero
// allocator calls).
//
// Method:
//  1. Load a DBpedia-shaped table through the batched engine, then churn
//     it with delete/reinsert rounds. Churn scatters the live rows' cell
//     vectors across the heap — the fragmented layout a long-lived table
//     converges to — while a freshly published snapshot stays packed in
//     its arena regardless.
//  2. Publication: one cold full publication (fresh facade, empty pools)
//     timed against steady-state full republications; the steady window
//     asserts the zero-malloc claim by watching the pool's lifetime block
//     counter stay flat.
//  3. Scan: full-table and pruned queries against a pinned snapshot,
//     serial executor, GB/s from the deterministic bytes_read counter.
//     Match counts, materialized cells and the matched-row order must
//     equal a brute-force walk over the catalog's rows.
//  4. Placement identity: facade-loaded vs bare serial inserts.
//
// Emits BENCH_scan.json in the working directory plus tables on stdout.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 60000; push past your LLC to
//          see the locality gap, e.g. 200000),
//        CINDERELLA_BENCH_CHURN_ROUNDS (default 6),
//        CINDERELLA_BENCH_SCAN_REPS (default 12),
//        CINDERELLA_BENCH_MAX_SIZE (default 50),
//        CINDERELLA_BENCH_IDENTITY_ENTITIES (default 6000).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
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
#include "query/predicate.h"
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

struct ScanPoint {
  std::string query;  // "full" or "pruned"
  double gbps = 0.0;
  double avg_ms = 0.0;
  uint64_t bytes_read = 0;
  uint64_t rows_matched = 0;
};

/// Times `reps` executions of `run` (which returns the QueryResult of one
/// pass) and converts the deterministic bytes_read counter into GB/s.
template <typename Fn>
ScanPoint TimeScan(const char* query, int reps, Fn run) {
  ScanPoint point;
  point.query = query;
  QueryResult last;
  WallTimer timer;
  for (int r = 0; r < reps; ++r) last = run();
  const double elapsed = timer.ElapsedSeconds();
  point.avg_ms = elapsed * 1e3 / reps;
  point.bytes_read = last.metrics.bytes_read;
  point.rows_matched = last.metrics.rows_matched;
  point.gbps = static_cast<double>(last.metrics.bytes_read) * reps /
               elapsed / 1e9;
  return point;
}

}  // namespace
}  // namespace cinderella

int main() {
  using namespace cinderella;
  using bench::PrintHeader;

  const size_t entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ENTITIES", 60000));
  const int churn_rounds = static_cast<int>(
      Int64FromEnv("CINDERELLA_BENCH_CHURN_ROUNDS", 6));
  const int scan_reps = static_cast<int>(
      Int64FromEnv("CINDERELLA_BENCH_SCAN_REPS", 12));
  const uint64_t max_size = static_cast<uint64_t>(
      Int64FromEnv("CINDERELLA_BENCH_MAX_SIZE", 50));
  const size_t identity_entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_IDENTITY_ENTITIES", 6000));

  DbpediaConfig dbconfig;
  dbconfig.num_entities = entities;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(dbconfig, &dictionary);
  const std::vector<Row> base_rows = generator.Generate();

  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = max_size;

  // ---- Load + churn (fragments the live heap layout). ----
  PrintHeader("scan: load and churn");
  auto partitioner = std::move(Cinderella::Create(config)).value();
  {
    auto engine = AttachBatchInserter(partitioner.get());
    std::vector<Row> rows = base_rows;
    if (!partitioner->InsertBatch(std::move(rows)).ok()) return 1;

    // Delete/reinsert random slices: the reinserted rows' cell vectors
    // land wherever the allocator has room now, interleaved with every
    // other allocation since load — the live scan below chases them.
    Rng rng(4243);
    const size_t slice = entities / 8 + 1;
    for (int round = 0; round < churn_rounds; ++round) {
      std::vector<size_t> picks;
      picks.reserve(slice);
      for (size_t i = 0; i < slice; ++i) {
        picks.push_back(rng.Uniform(base_rows.size()));
      }
      std::vector<Row> reinsert;
      reinsert.reserve(picks.size());
      for (size_t pick : picks) {
        const EntityId id = base_rows[pick].id();
        if (!partitioner->Delete(id).ok()) continue;  // Already in flight.
        reinsert.push_back(base_rows[pick]);
      }
      if (!partitioner->InsertBatch(std::move(reinsert)).ok()) return 1;
    }
    std::printf("  %zu entities, %d churn rounds, %zu partitions\n",
                entities, churn_rounds,
                partitioner->catalog().partition_count());
  }

  // ---- Publication latency: cold vs pooled. ----
  PrintHeader("publication: cold vs pooled (full view rebuilds)");
  // The owning constructor publishes the initial full view against empty
  // pools: every arena block, version shell and view object is a fresh
  // allocation. This is the cold number.
  WallTimer cold_timer;
  VersionedTable table(std::move(partitioner));
  const double cold_ms = cold_timer.ElapsedSeconds() * 1e3;
  const uint64_t cold_blocks = table.memory_stats().arenas.blocks_allocated;

  // Warm the pools, then measure the steady state: every republication
  // reuses a pooled arena (blocks retained across Reset), pooled shells
  // and a pooled view — the lifetime block counter must not move.
  constexpr int kWarmups = 4;
  constexpr int kSteady = 16;
  for (int i = 0; i < kWarmups; ++i) table.RefreshView();
  const VersionedTable::MemoryStats warm = table.memory_stats();
  WallTimer steady_timer;
  for (int i = 0; i < kSteady; ++i) table.RefreshView();
  const double pooled_ms = steady_timer.ElapsedSeconds() * 1e3 / kSteady;
  const VersionedTable::MemoryStats steady = table.memory_stats();
  const uint64_t steady_block_mallocs =
      steady.arenas.blocks_allocated - warm.arenas.blocks_allocated;
  const uint64_t steady_arena_creations =
      steady.arenas.arenas_created - warm.arenas.arenas_created;
  const uint64_t steady_shell_creations =
      steady.version_shells.created - warm.version_shells.created;

  std::printf("  cold  %8.2f ms  (%llu blocks malloc'ed)\n", cold_ms,
              static_cast<unsigned long long>(cold_blocks));
  std::printf("  pooled%8.2f ms  (%llu blocks, %llu arenas, %llu shells "
              "malloc'ed across %d republications)\n",
              pooled_ms,
              static_cast<unsigned long long>(steady_block_mallocs),
              static_cast<unsigned long long>(steady_arena_creations),
              static_cast<unsigned long long>(steady_shell_creations),
              kSteady);

  // ---- Scan throughput over a pinned (arena-packed) snapshot. ----
  PrintHeader("scan: pinned snapshot");
  // The full scan must actually read cell data on every row (a match-all
  // predicate would only walk row headers and measure nothing but loop
  // overhead): a compound with no pruning synopsis forces a full scan
  // whose per-row evaluation binary-searches two attributes through the
  // cells — exactly where the packed layout's locality shows up.
  const PredicatePtr match_all = Or([] {
    std::vector<PredicatePtr> children;
    children.push_back(Compare(1, CompareOp::kGt, Value(int64_t{-1})));
    children.push_back(Not(IsNotNull(2)));
    return children;
  }());
  const Query pruned_query(Synopsis{0, 3});
  const VersionedTable::Snapshot snapshot = table.snapshot();
  QueryExecutor pinned(snapshot.view());

  std::vector<ScanPoint> scans;
  scans.push_back(TimeScan("full", scan_reps, [&] {
    return pinned.ExecutePredicate(*match_all);
  }));
  scans.push_back(TimeScan("pruned", scan_reps, [&] {
    return pinned.Execute(pruned_query);
  }));
  for (const ScanPoint& p : scans) {
    std::printf("  %-6s %8.3f GB/s  %8.2f ms/scan  (%llu rows)\n",
                p.query.c_str(), p.gbps, p.avg_ms,
                static_cast<unsigned long long>(p.rows_matched));
  }

  // ---- Result identity against a brute-force oracle. ----
  // A hand walk over the catalog's partitions and rows in id-then-row
  // order (the order the scan promises): the matched ids of the full
  // scan, and the rows and cells the pruned query's projection yields.
  std::vector<EntityId> expected_matches;
  uint64_t expected_pruned_rows = 0;
  uint64_t expected_pruned_cells = 0;
  table.partitioner().catalog().ForEachPartition(
      [&](const Partition& partition) {
        for (const Row& row : partition.segment().rows()) {
          if (match_all->Matches(row)) expected_matches.push_back(row.id());
          const uint64_t cells = (row.Get(0) != nullptr ? 1 : 0) +
                                 (row.Get(3) != nullptr ? 1 : 0);
          expected_pruned_rows += cells > 0 ? 1 : 0;
          expected_pruned_cells += cells;
        }
      });
  const QueryResult full = pinned.ExecutePredicate(*match_all);
  const QueryResult pruned = pinned.Execute(pruned_query);
  std::vector<EntityId> matches;
  (void)pinned.ScanMatches(*match_all, [&](const RowView& row) {
    matches.push_back(row.id());
  });
  const bool results_identical =
      full.metrics.rows_scanned == table.entity_count() &&
      full.metrics.rows_matched == expected_matches.size() &&
      matches == expected_matches &&
      pruned.metrics.rows_matched == expected_pruned_rows &&
      pruned.cells_materialized == expected_pruned_cells;
  std::printf("  query results: %s\n",
              results_identical ? "identical" : "MISMATCH");

  // ---- Placement identity: facade-loaded vs bare serial inserts. ----
  PrintHeader("identity: facade ingest vs serial inserts");
  DbpediaConfig small_config;
  small_config.num_entities = identity_entities;
  AttributeDictionary small_dictionary;
  DbpediaGenerator small_generator(small_config, &small_dictionary);
  const std::vector<Row> small_rows = small_generator.Generate();
  uint64_t serial_fingerprint = 0;
  {
    auto serial = std::move(Cinderella::Create(config)).value();
    for (const Row& row : small_rows) {
      if (!serial->Insert(row).ok()) return 1;
    }
    serial_fingerprint = GroupingFingerprint(*serial);
  }
  bool placements_identical = false;
  {
    VersionedTable facade(std::move(Cinderella::Create(config)).value());
    std::vector<Row> rows = small_rows;
    if (!facade.InsertBatch(std::move(rows)).ok()) return 1;
    placements_identical =
        GroupingFingerprint(facade.partitioner()) == serial_fingerprint;
  }
  std::printf("  %s\n", placements_identical ? "identical" : "MISMATCH");

  // ---- Trajectory point. ----
  FILE* json = std::fopen("BENCH_scan.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scan.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"micro_scan\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n", entities);
  std::fprintf(json, "  \"churn_rounds\": %d,\n", churn_rounds);
  std::fprintf(json, "  \"max_size\": %llu,\n",
               static_cast<unsigned long long>(max_size));
  bench::WriteHostMetadata(json);
  std::fprintf(json,
               "  \"publication\": {\"cold_ms\": %.3f, \"pooled_ms\": %.3f, "
               "\"republications\": %d, \"steady_state_block_mallocs\": %llu, "
               "\"steady_state_arena_creations\": %llu, "
               "\"steady_state_shell_creations\": %llu, "
               "\"arenas_reused\": %llu, \"bytes_retained\": %zu},\n",
               cold_ms, pooled_ms, kSteady,
               static_cast<unsigned long long>(steady_block_mallocs),
               static_cast<unsigned long long>(steady_arena_creations),
               static_cast<unsigned long long>(steady_shell_creations),
               static_cast<unsigned long long>(steady.arenas.arenas_reused),
               steady.arenas.bytes_retained);
  std::fprintf(json, "  \"scans\": [");
  for (size_t i = 0; i < scans.size(); ++i) {
    const ScanPoint& p = scans[i];
    std::fprintf(json,
                 "%s\n    {\"source\": \"snapshot\", \"query\": \"%s\", "
                 "\"gbps\": %.4f, \"avg_ms\": %.3f, \"bytes_read\": %llu, "
                 "\"rows_matched\": %llu}",
                 i == 0 ? "" : ",", p.query.c_str(),
                 p.gbps, p.avg_ms,
                 static_cast<unsigned long long>(p.bytes_read),
                 static_cast<unsigned long long>(p.rows_matched));
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json, "  \"results_identical\": %s,\n",
               results_identical ? "true" : "false");
  std::fprintf(json, "  \"placement_identical\": %s\n}\n",
               placements_identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_scan.json\n");
  return (results_identical && placements_identical &&
          steady_block_mallocs == 0)
             ? 0
             : 1;
}
