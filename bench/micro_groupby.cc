// Microbench for the morsel-driven adaptive GROUP BY engine
// (query/aggregator.h): fixed strategies versus the adaptive chooser
// across group cardinalities and thread counts, plus the guided morsel
// schedule versus the legacy uniform pre-split on a skewed catalog.
//
// Method:
//  1. Build catalogs directly (CreatePartition/AddRow) and capture them
//     (CatalogCapture) so partition sizes are controlled exactly and
//     setup cost stays off the clock:
//     a uniform catalog for the strategy sweep and a skewed one (one
//     partition holding ~25% of all rows) for the scheduling comparison.
//  2. Strategy sweep: for each group cardinality and thread count, time
//     two_phase, radix, shared_table, and adaptive. Every run's result
//     must be bit-identical to the serial two-phase baseline (the
//     determinism contract); the adaptive row records which strategy the
//     chooser picked and its overhead against the best fixed strategy
//     (target: within ~10% at every point).
//  3. Scheduling: two_phase at a fixed thread count on the skewed
//     catalog, uniform pre-split (ParallelFor) vs guided morsel schedule
//     (ParallelForDynamic) — the straggler partition gates the former.
//
// Emits BENCH_groupby.json in the working directory plus tables on
// stdout. Exit code reflects result identity only; timings are data.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 600000),
//        CINDERELLA_BENCH_GROUPBY_REPS (default 3),
//        CINDERELLA_BENCH_ROWS_PER_PART (default 512),
//        CINDERELLA_SCAN_CHUNK (morsel size, recorded in host metadata).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/catalog.h"
#include "mvcc/partition_version.h"
#include "query/aggregator.h"
#include "storage/row.h"

namespace cinderella {
namespace {

constexpr AttributeId kGroup = 0;
constexpr AttributeId kValue = 1;

/// Builds a catalog with `partition_rows[p]` rows in partition p (group
/// keys id % groups, deterministic int64/double values, plus a noise
/// attribute so synopses differ across partitions) and returns its
/// capture; the catalog itself is dropped once packed.
std::unique_ptr<CatalogCapture> CaptureFilledCatalog(
    const std::vector<size_t>& partition_rows, size_t groups) {
  PartitionCatalog catalog;
  Rng rng(991);
  EntityId next_id = 0;
  for (const size_t rows : partition_rows) {
    Partition& partition = catalog.CreatePartition();
    for (size_t i = 0; i < rows; ++i) {
      Row row(next_id++);
      row.Set(kGroup,
              Value(static_cast<int64_t>(rng.Uniform(groups))));
      if (i % 8 == 5) {
        row.Set(kValue, Value(static_cast<double>(rng.Uniform(1000)) / 7.0));
      } else {
        row.Set(kValue, Value(static_cast<int64_t>(rng.Uniform(2000)) - 1000));
      }
      row.Set(static_cast<AttributeId>(2 + partition.id() % 7),
              Value(int64_t{1}));
      const Synopsis synopsis = row.AttributeSynopsis();
      if (!partition.AddRow(std::move(row), synopsis).ok()) std::abort();
    }
  }
  return std::make_unique<CatalogCapture>(catalog);
}

std::vector<size_t> UniformPartitions(size_t entities, size_t per_partition) {
  std::vector<size_t> rows(entities / per_partition, per_partition);
  if (entities % per_partition != 0) {
    rows.push_back(entities % per_partition);
  }
  return rows;
}

/// One partition holds ~25% of every row; the rest are uniform. The
/// uniform pre-split schedule strands whichever thread draws the big
/// partition's chunk.
std::vector<size_t> SkewedPartitions(size_t entities, size_t per_partition) {
  const size_t big = entities / 4;
  std::vector<size_t> rows{big};
  const std::vector<size_t> tail =
      UniformPartitions(entities - big, per_partition);
  rows.insert(rows.end(), tail.begin(), tail.end());
  return rows;
}

struct BenchPoint {
  size_t groups = 0;
  int threads = 0;
  std::string strategy;       // Requested strategy ("adaptive" included).
  std::string strategy_used;  // What actually ran.
  double avg_ms = 0.0;
  uint64_t groups_out = 0;
  uint64_t estimated_groups = 0;
  bool identical = true;  // vs the serial two-phase baseline.
};

double TimeAggregate(Aggregator* aggregator, const AggregateSpec& spec,
                     int reps, AggregationResult* last) {
  WallTimer timer;
  for (int r = 0; r < reps; ++r) *last = aggregator->Aggregate(spec);
  return timer.ElapsedSeconds() * 1e3 / reps;
}

}  // namespace
}  // namespace cinderella

int main() {
  using namespace cinderella;
  using bench::PrintHeader;

  const size_t entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ENTITIES", 600000));
  const int reps = static_cast<int>(
      Int64FromEnv("CINDERELLA_BENCH_GROUPBY_REPS", 3));
  const size_t per_partition = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ROWS_PER_PART", 512));

  // 10 -> ~1M distinct groups, capped by the table size.
  std::vector<size_t> group_counts;
  for (const size_t g : {size_t{10}, size_t{1000}, size_t{65536},
                         size_t{1000000}}) {
    group_counts.push_back(std::min(g, entities));
  }
  group_counts.erase(std::unique(group_counts.begin(), group_counts.end()),
                     group_counts.end());
  const std::vector<int> thread_counts{1, 2, 4, 8};

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;

  std::vector<BenchPoint> points;
  bool all_identical = true;
  double worst_adaptive_ratio = 1.0;

  for (const size_t groups : group_counts) {
    PrintHeader("groupby: " + std::to_string(groups) + " groups, " +
                std::to_string(entities) + " rows");
    const std::unique_ptr<CatalogCapture> catalog = CaptureFilledCatalog(
        UniformPartitions(entities, per_partition), groups);

    // Serial two-phase: the baseline every configuration must reproduce
    // bit-identically.
    std::vector<GroupResult> baseline;
    {
      Aggregator serial(catalog->view());
      baseline = serial.Aggregate(spec).groups;
    }

    for (const int threads : thread_counts) {
      double best_fixed_ms = 0.0;
      double adaptive_ms = 0.0;
      const AggregateStrategy strategies[] = {
          AggregateStrategy::kTwoPhase, AggregateStrategy::kRadix,
          AggregateStrategy::kSharedTable, AggregateStrategy::kAdaptive};
      for (const AggregateStrategy strategy : strategies) {
        AggregatorOptions options;
        options.scan_threads = threads;
        options.strategy = strategy;
        Aggregator aggregator(catalog->view(), options);
        AggregationResult last;
        BenchPoint point;
        point.groups = groups;
        point.threads = threads;
        point.strategy = AggregateStrategyName(strategy);
        point.avg_ms = TimeAggregate(&aggregator, spec, reps, &last);
        point.strategy_used = AggregateStrategyName(last.strategy_used);
        point.groups_out = last.groups.size();
        point.estimated_groups = last.estimated_groups;
        point.identical = last.groups == baseline;
        all_identical &= point.identical;
        if (strategy == AggregateStrategy::kAdaptive) {
          adaptive_ms = point.avg_ms;
        } else if (best_fixed_ms == 0.0 || point.avg_ms < best_fixed_ms) {
          best_fixed_ms = point.avg_ms;
        }
        std::printf("  t=%d %-12s %9.2f ms  (%llu groups, ran %s%s)\n",
                    threads, point.strategy.c_str(), point.avg_ms,
                    static_cast<unsigned long long>(point.groups_out),
                    point.strategy_used.c_str(),
                    point.identical ? "" : ", MISMATCH");
        points.push_back(point);
      }
      const double ratio =
          best_fixed_ms > 0.0 ? adaptive_ms / best_fixed_ms : 1.0;
      worst_adaptive_ratio = std::max(worst_adaptive_ratio, ratio);
      std::printf("  t=%d adaptive/best-fixed = %.3fx\n", threads, ratio);
    }
  }

  // ---- Scheduling: uniform pre-split vs guided morsels, skewed sizes. --
  PrintHeader("scheduling: fixed chunks vs morsels (skewed partitions)");
  const size_t sched_groups = std::min<size_t>(1000, entities);
  const std::unique_ptr<CatalogCapture> skewed = CaptureFilledCatalog(
      SkewedPartitions(entities, per_partition), sched_groups);
  double fixed_ms = 0.0;
  double morsel_ms = 0.0;
  bool sched_identical = true;
  {
    std::vector<GroupResult> baseline;
    for (const bool fixed : {true, false}) {
      AggregatorOptions options;
      options.scan_threads = 4;
      options.strategy = AggregateStrategy::kTwoPhase;
      options.fixed_chunks = fixed;
      Aggregator aggregator(skewed->view(), options);
      AggregationResult last;
      const double ms = TimeAggregate(&aggregator, spec, reps, &last);
      if (fixed) {
        fixed_ms = ms;
        baseline = last.groups;
      } else {
        morsel_ms = ms;
        sched_identical = last.groups == baseline;
      }
    }
  }
  all_identical &= sched_identical;
  std::printf("  fixed %9.2f ms   morsel %9.2f ms   (%.3fx%s)\n", fixed_ms,
              morsel_ms, fixed_ms > 0.0 ? fixed_ms / morsel_ms : 0.0,
              sched_identical ? "" : ", MISMATCH");

  // ---- Trajectory point. ----
  FILE* json = std::fopen("BENCH_groupby.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_groupby.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"micro_groupby\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n", entities);
  std::fprintf(json, "  \"reps\": %d,\n", reps);
  std::fprintf(json, "  \"rows_per_partition\": %zu,\n", per_partition);
  bench::WriteHostMetadata(json);
  std::fprintf(json, "  \"points\": [");
  for (size_t i = 0; i < points.size(); ++i) {
    const BenchPoint& p = points[i];
    std::fprintf(json,
                 "%s\n    {\"groups\": %zu, \"threads\": %d, "
                 "\"strategy\": \"%s\", \"ran\": \"%s\", \"avg_ms\": %.3f, "
                 "\"groups_out\": %llu, \"estimated_groups\": %llu, "
                 "\"identical\": %s}",
                 i == 0 ? "" : ",", p.groups, p.threads, p.strategy.c_str(),
                 p.strategy_used.c_str(), p.avg_ms,
                 static_cast<unsigned long long>(p.groups_out),
                 static_cast<unsigned long long>(p.estimated_groups),
                 p.identical ? "true" : "false");
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json,
               "  \"scheduling\": {\"fixed_ms\": %.3f, \"morsel_ms\": %.3f, "
               "\"speedup\": %.3f},\n",
               fixed_ms, morsel_ms,
               morsel_ms > 0.0 ? fixed_ms / morsel_ms : 0.0);
  std::fprintf(json, "  \"worst_adaptive_vs_best_fixed\": %.3f,\n",
               worst_adaptive_ratio);
  std::fprintf(json, "  \"results_identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nworst adaptive/best-fixed ratio: %.3fx (target <= ~1.10)\n",
              worst_adaptive_ratio);
  std::printf("wrote BENCH_groupby.json\n");
  return all_identical ? 0 : 1;
}
