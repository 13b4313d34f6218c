// Microbench for the MVCC snapshot storage (src/mvcc, one exact-size
// buffer per partition version): snapshot scan throughput, publication
// latency of full republications, and the memory bound under partial
// churn.
//
// Method:
//  1. Load a DBpedia-shaped table through the batched engine, then churn
//     it with delete/reinsert rounds. Churn scatters the live rows' cell
//     vectors across the heap — the fragmented layout a long-lived table
//     converges to — while a freshly published version stays packed in
//     its own buffer regardless.
//  2. Publication: the first full publication (facade construction)
//     and steady full republications (RefreshView), timed; then partial
//     churn — small delete+reinsert batches on random entities through
//     the facade, so the versions of one publication retire at different
//     times. With no reader pinned, every batch must leave the held bytes
//     (all unreclaimed versions) equal to the current view's bytes.
//  3. Scan: full-table and pruned queries against a pinned snapshot,
//     serial executor, GB/s from the deterministic bytes_read counter.
//     Match counts, materialized cells and the matched-row order must
//     equal a brute-force walk over the catalog's rows.
//  4. Placement identity: facade-loaded vs bare serial inserts.
//
// Emits BENCH_scan.json in the working directory plus tables on stdout;
// exits nonzero when a result, a placement or the held-bytes bound is
// off.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 60000; push past your LLC to
//          see the locality gap, e.g. 200000),
//        CINDERELLA_BENCH_CHURN_ROUNDS (default 6),
//        CINDERELLA_BENCH_SCAN_REPS (default 12),
//        CINDERELLA_BENCH_MAX_SIZE (default 50),
//        CINDERELLA_BENCH_IDENTITY_ENTITIES (default 6000).

#include <algorithm>
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

  // ---- Publication: full republications, then partial churn. ----
  PrintHeader("publication: full republications and partial churn");
  // The owning constructor publishes the initial full view: one fresh
  // buffer per version.
  WallTimer first_timer;
  VersionedTable table(std::move(partitioner));
  const double first_ms = first_timer.ElapsedSeconds() * 1e3;
  const VersionedTable::MemoryStats first = table.memory_stats();

  // Each full republication builds every version anew and frees the
  // superseded ones (no reader is pinned), so the allocator hands the
  // freed buffers back to the next one.
  constexpr int kRepublications = 16;
  WallTimer full_timer;
  for (int i = 0; i < kRepublications; ++i) table.RefreshView();
  const double full_ms = full_timer.ElapsedSeconds() * 1e3 / kRepublications;

  // Partial churn: each batch deletes and reinserts 8 random entities,
  // republishing the few partitions they leave and join.
  constexpr int kChurnBatches = 64;
  const uint64_t buffers_before =
      table.memory_stats().arenas.blocks_allocated;
  Rng churn_rng(4244);
  bool held_equals_view = true;
  WallTimer churn_timer;
  for (int batch = 0; batch < kChurnBatches; ++batch) {
    std::vector<Mutation> ops;
    std::vector<size_t> picks;
    while (picks.size() < 8) {
      const size_t pick = churn_rng.Uniform(base_rows.size());
      if (std::find(picks.begin(), picks.end(), pick) == picks.end()) {
        picks.push_back(pick);
      }
    }
    for (size_t pick : picks) {
      ops.push_back(Mutation::Delete(base_rows[pick].id()));
      ops.push_back(Mutation::Insert(base_rows[pick]));
    }
    if (!table.ApplyMutations(std::move(ops)).ok()) return 1;
    const VersionedTable::MemoryStats m = table.memory_stats();
    held_equals_view =
        held_equals_view && m.held_bytes == m.view_bytes &&
        m.retired_objects == 0;
  }
  const double churn_ms =
      churn_timer.ElapsedSeconds() * 1e3 / kChurnBatches;
  const VersionedTable::MemoryStats churned = table.memory_stats();
  const uint64_t churn_buffers =
      churned.arenas.blocks_allocated - buffers_before;

  std::printf("  first publication  %8.2f ms  (%zu versions, %.2f MiB)\n",
              first_ms, first.live_versions,
              static_cast<double>(first.view_bytes) / (1024.0 * 1024.0));
  std::printf("  full republication %8.2f ms  (mean of %d)\n", full_ms,
              kRepublications);
  std::printf("  partial churn      %8.2f ms/batch  (%d batches, %.1f "
              "buffers/batch), held bytes %s view bytes\n",
              churn_ms, kChurnBatches,
              static_cast<double>(churn_buffers) / kChurnBatches,
              held_equals_view ? "==" : "!=");

  // ---- Scan throughput over a pinned snapshot. ----
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
               "  \"publication\": {\"first_ms\": %.3f, \"full_ms\": %.3f, "
               "\"republications\": %d, \"churn_batches\": %d, "
               "\"churn_ms_per_batch\": %.3f, "
               "\"churn_buffers_per_batch\": %.2f, \"view_bytes\": %zu, "
               "\"held_bytes\": %zu, \"held_equals_view\": %s},\n",
               first_ms, full_ms, kRepublications, kChurnBatches, churn_ms,
               static_cast<double>(churn_buffers) / kChurnBatches,
               churned.view_bytes, churned.held_bytes,
               held_equals_view ? "true" : "false");
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
  return (results_identical && placements_identical && held_equals_view)
             ? 0
             : 1;
}
