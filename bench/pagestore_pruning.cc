// Disk-based deployment scenario (Section II: "In traditional disk-based
// systems, pages may represent a partition granularity where solving the
// online partitioning problem can help to increase the query efficiency").
//
// Part 1 — static layouts: the DBpedia data set is written to the cold
// tier's page file twice: partitioned by Cinderella (each partition = one
// page chain) and in arrival order (one chain). The selective workload
// then runs against both, reading only the chains whose partition
// synopsis intersects the query; the metric is physical pages fetched
// through the buffer pool — what pruning saves a disk-based system.
//
// Part 2 — out-of-core tiered engine: the same data set inside a *live*
// Cinderella engine whose idle tail is spilled to a TieredStore cold tier
// sized so the data set is >= 4x the buffer-pool budget. The selective
// slice of the workload runs through the hybrid executor (synopses prune
// cold partitions without I/O; only intersecting chains are fetched); the
// acceptance metric is the fraction of cold pages fetched per selective
// query (< 30%), with results identical to the all-hot scan.
//
// Emits BENCH_pagestore.json.
//
// Env knobs: CINDERELLA_BENCH_ENTITIES (default 20000, falls back to
// CINDERELLA_ENTITIES), CINDERELLA_SEED.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "core/cinderella.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "storage/tiered_store.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"

namespace cinderella {
namespace {

/// One static layout: page chains in their own tier, each with the
/// synopsis of the rows it holds.
struct Layout {
  std::unique_ptr<TieredStore> tier;
  std::vector<std::shared_ptr<const ColdChain>> chains;
  std::vector<Synopsis> synopses;

  explicit Layout(const std::string& path) {
    TieredStoreOptions options;
    options.path = path;
    options.page_size = 8192;
    options.pool_frames = 64;
    tier = std::move(TieredStore::Open(options)).value();
  }

  void AddChain(const std::vector<Row>& rows, Synopsis synopsis) {
    chains.push_back(std::move(tier->WriteChain(rows)).value());
    synopses.push_back(std::move(synopsis));
  }

  uint64_t pages() const { return tier->stats().cold_pages; }

  /// Reads every chain whose synopsis intersects the query. Returns the
  /// number of matching rows; `pages_fetched` gets the pool fetches the
  /// query made.
  uint64_t Execute(const Query& query, uint64_t* pages_fetched) const {
    const BufferPoolStats before = tier->stats().pool;
    uint64_t matched = 0;
    for (size_t i = 0; i < chains.size(); ++i) {
      if (!synopses[i].Intersects(query.attributes())) continue;
      CINDERELLA_CHECK(tier->ReadChain(*chains[i], [&](Row&& row) {
                             if (query.Matches(row.AttributeSynopsis())) {
                               ++matched;
                             }
                           }).ok());
    }
    const BufferPoolStats after = tier->stats().pool;
    *pages_fetched =
        (after.hits + after.misses) - (before.hits + before.misses);
    return matched;
  }
};

int Main() {
  DbpediaConfig config;
  config.num_entities = static_cast<size_t>(Int64FromEnv(
      "CINDERELLA_BENCH_ENTITIES", Int64FromEnv("CINDERELLA_ENTITIES", 20000)));
  config.seed = static_cast<uint64_t>(Int64FromEnv("CINDERELLA_SEED", 42));

  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  const auto workload =
      GenerateQueryWorkload(rows, config.num_attributes, QueryWorkloadConfig{});
  std::printf("data set: %zu entities; %zu workload queries; 8 KiB pages\n",
              rows.size(), workload.size());

  // ---- Part 1: static page layouts, partitioned vs arrival order. ----

  CinderellaConfig cc;
  cc.weight = 0.2;
  cc.max_size = 500;
  auto cinderella = std::move(Cinderella::Create(cc)).value();
  bench::LoadRows(*cinderella, bench::CopyRows(rows));

  Layout partitioned("/tmp/cinderella_partitioned.pages");
  cinderella->catalog().ForEachPartition([&](const Partition& partition) {
    if (partition.entity_count() == 0) return;
    partitioned.AddChain(partition.segment().rows(),
                         partition.attribute_synopsis());
  });

  // Arrival-order layout: one chain holding everything.
  Layout arrival("/tmp/cinderella_arrival.pages");
  Synopsis all_attributes;
  for (const Row& row : rows) all_attributes.UnionWith(row.AttributeSynopsis());
  arrival.AddChain(rows, std::move(all_attributes));

  std::printf("partitioned layout: %zu partitions, %llu pages in file\n",
              partitioned.chains.size(),
              static_cast<unsigned long long>(partitioned.pages()));
  std::printf("arrival layout: 1 chain, %llu pages in file\n",
              static_cast<unsigned long long>(arrival.pages()));

  bench::PrintHeader("Pages fetched per query (selectivity bands)");
  TablePrinter table({"selectivity", "queries", "partitioned pages/query",
                      "arrival pages/query", "saving"});
  double overall_saving = 0.0;
  size_t saving_bands = 0;
  for (double lo = 0.0; lo < 1.0; lo += 0.1) {
    const double hi = lo + 0.1;
    uint64_t pages_partitioned = 0;
    uint64_t pages_arrival = 0;
    size_t count = 0;
    for (const GeneratedQuery& q : workload) {
      if (q.selectivity < lo || q.selectivity >= hi) continue;
      uint64_t a = 0;
      uint64_t b = 0;
      CINDERELLA_CHECK(partitioned.Execute(q.query, &a) ==
                       arrival.Execute(q.query, &b));
      pages_partitioned += a;
      pages_arrival += b;
      ++count;
    }
    if (count == 0) continue;
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f-%.1f", lo, hi);
    const double pa = static_cast<double>(pages_partitioned) / count;
    const double pb = static_cast<double>(pages_arrival) / count;
    char saving[16];
    std::snprintf(saving, sizeof(saving), "%.1fx", pb / (pa > 0 ? pa : 1));
    overall_saving += pb / (pa > 0 ? pa : 1);
    ++saving_bands;
    table.AddRow({label, std::to_string(count),
                  TablePrinter::FormatDouble(pa, 1),
                  TablePrinter::FormatDouble(pb, 1), saving});
  }
  std::fputs(table.ToString().c_str(), stdout);

  const BufferPoolStats partitioned_pool = partitioned.tier->stats().pool;
  const BufferPoolStats arrival_pool = arrival.tier->stats().pool;
  std::printf(
      "\nbuffer pool after the workload: partitioned %llu hits / %llu "
      "misses; arrival %llu hits / %llu misses\n",
      static_cast<unsigned long long>(partitioned_pool.hits),
      static_cast<unsigned long long>(partitioned_pool.misses),
      static_cast<unsigned long long>(arrival_pool.hits),
      static_cast<unsigned long long>(arrival_pool.misses));

  // ---- Part 2: out-of-core tiered engine, hybrid pruned scans. ----

  bench::PrintHeader("Out-of-core cold tier (live engine, hybrid scans)");

  // The selective slice: the most selective quartile of the workload (at
  // most selectivity 0.1 when the workload offers it).
  std::vector<const GeneratedQuery*> slice;
  for (const GeneratedQuery& q : workload) {
    if (q.selectivity <= 0.1) slice.push_back(&q);
  }
  if (slice.empty()) {
    std::vector<const GeneratedQuery*> sorted;
    for (const GeneratedQuery& q : workload) sorted.push_back(&q);
    std::sort(sorted.begin(), sorted.end(),
              [](const GeneratedQuery* a, const GeneratedQuery* b) {
                return a->selectivity < b->selectivity;
              });
    sorted.resize(std::max<size_t>(1, sorted.size() / 4));
    slice = std::move(sorted);
  }

  // All-hot reference results for the slice.
  std::vector<uint64_t> hot_matches;
  hot_matches.reserve(slice.size());
  {
    VersionedTable versioned(cinderella.get(), nullptr);
    const VersionedTable::Snapshot snapshot = versioned.snapshot();
    QueryExecutor executor(snapshot.view(), 1);
    for (const GeneratedQuery* q : slice) {
      hot_matches.push_back(executor.Execute(q->query).metrics.rows_matched);
    }
  }

  uint64_t dataset_bytes = 0;
  cinderella->catalog().ForEachPartition([&](const Partition& partition) {
    dataset_bytes += partition.Size(SizeMeasure::kByteSize);
  });

  // Size the pool so the data set is >= 4x the buffer-pool budget (floor
  // of 2 frames keeps the smoke run honest at tiny scales).
  TieredStoreOptions tier_options;
  tier_options.path = "/tmp/cinderella_cold_tier.pages";
  tier_options.page_size = 8192;
  tier_options.pool_frames = std::max<size_t>(
      2, static_cast<size_t>(dataset_bytes / (tier_options.page_size * 16)));
  const uint64_t pool_budget_bytes =
      static_cast<uint64_t>(tier_options.pool_frames) * tier_options.page_size;
  auto tier = std::move(TieredStore::Open(tier_options)).value();
  cinderella->set_cold_tier(tier.get());

  // Spill everything idle down to one pool budget of hot bytes.
  TierController controller(
      cinderella.get(),
      TierControllerOptions{pool_budget_bytes, /*min_idle=*/0});
  const size_t spilled = std::move(controller.EvaluateAndSpill()).value();
  const TieredStoreStats cold_stats = tier->stats();
  std::printf(
      "data set %.2f MiB vs pool budget %.2f MiB (%.1fx); spilled %zu "
      "partitions -> %llu cold pages; hot tier %.2f MiB\n",
      dataset_bytes / 1048576.0, pool_budget_bytes / 1048576.0,
      static_cast<double>(dataset_bytes) /
          static_cast<double>(pool_budget_bytes),
      spilled, static_cast<unsigned long long>(cold_stats.cold_pages),
      controller.HotBytes() / 1048576.0);
  CINDERELLA_CHECK(dataset_bytes >= 4 * pool_budget_bytes);

  // The selective slice through the hybrid executor over a snapshot of
  // the spilled table: per query, the cold pages fetched (buffer-pool
  // traffic delta) over the cold pages in the tier. Pruned cold
  // partitions cost zero fetches.
  VersionedTable versioned(cinderella.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  QueryExecutor executor(snapshot.view(), 1);
  bool results_identical = true;
  uint64_t fetched_total = 0;
  double fraction_sum = 0.0;
  for (size_t i = 0; i < slice.size(); ++i) {
    const TieredStoreStats before = tier->stats();
    const QueryResult result = executor.Execute(slice[i]->query);
    const TieredStoreStats after = tier->stats();
    if (result.metrics.rows_matched != hot_matches[i]) {
      results_identical = false;
    }
    const uint64_t fetched =
        (after.pool.hits + after.pool.misses) -
        (before.pool.hits + before.pool.misses);
    fetched_total += fetched;
    fraction_sum += cold_stats.cold_pages > 0
                        ? static_cast<double>(fetched) /
                              static_cast<double>(cold_stats.cold_pages)
                        : 0.0;
  }
  const double avg_fraction =
      slice.empty() ? 0.0 : fraction_sum / static_cast<double>(slice.size());
  const TieredStoreStats final_stats = tier->stats();
  const uint64_t pool_touches = final_stats.pool.hits + final_stats.pool.misses;
  const double hit_rate =
      pool_touches > 0
          ? static_cast<double>(final_stats.pool.hits) /
                static_cast<double>(pool_touches)
          : 0.0;
  std::printf(
      "selective slice: %zu queries; avg %.1f%% of cold pages fetched per "
      "query (target < 30%%); results identical to all-hot: %s; buffer "
      "pool %.1f%% hit rate\n",
      slice.size(), avg_fraction * 100.0, results_identical ? "yes" : "NO",
      hit_rate * 100.0);
  const bool under_target = avg_fraction < 0.30;
  if (!under_target) {
    std::printf("WARNING: cold-page fetch fraction above the 30%% target\n");
  }

  // ---- Trajectory point. ----
  std::FILE* json = std::fopen("BENCH_pagestore.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pagestore.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"pagestore_pruning\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n  \"workload_queries\": %zu,\n",
               rows.size(), workload.size());
  bench::WriteHostMetadata(json);
  std::fprintf(json,
               "  \"static_layouts\": {\"partitions\": %zu, "
               "\"partitioned_pages\": %llu, \"arrival_pages\": %llu, "
               "\"avg_page_saving\": %.2f},\n",
               partitioned.chains.size(),
               static_cast<unsigned long long>(partitioned.pages()),
               static_cast<unsigned long long>(arrival.pages()),
               saving_bands > 0 ? overall_saving / saving_bands : 0.0);
  std::fprintf(json,
               "  \"tiered\": {\"dataset_bytes\": %llu, "
               "\"pool_budget_bytes\": %llu, \"budget_ratio\": %.2f, "
               "\"partitions_spilled\": %zu, \"cold_pages\": %llu, "
               "\"selective_queries\": %zu, \"pages_fetched\": %llu, "
               "\"avg_cold_page_fraction\": %.4f, \"under_30pct\": %s, "
               "\"pool_hit_rate\": %.4f},\n",
               static_cast<unsigned long long>(dataset_bytes),
               static_cast<unsigned long long>(pool_budget_bytes),
               static_cast<double>(dataset_bytes) /
                   static_cast<double>(pool_budget_bytes),
               spilled, static_cast<unsigned long long>(cold_stats.cold_pages),
               slice.size(), static_cast<unsigned long long>(fetched_total),
               avg_fraction, under_target ? "true" : "false", hit_rate);
  std::fprintf(json, "  \"results_identical\": %s\n}\n",
               results_identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_pagestore.json\n");
  return results_identical ? 0 : 1;
}

}  // namespace
}  // namespace cinderella

int main() { return cinderella::Main(); }
