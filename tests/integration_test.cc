// End-to-end integration tests across modules: the full pipeline
// (generate -> partition -> snapshot -> reopen -> query -> CSV round trip)
// and a paged-store differential test against the in-memory engine.

#include <filesystem>
#include <set>
#include <string>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "core/efficiency.h"
#include "core/snapshot.h"
#include "core/universal_table.h"
#include "io/csv.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/paged_store.h"
#include "pagestore/pager.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"

namespace cinderella {
namespace {

TEST(IntegrationTest, FullPipeline) {
  // 1. Generate a small irregular data set.
  DbpediaConfig config;
  config.num_entities = 3000;
  config.seed = 99;
  auto dictionary = std::make_unique<AttributeDictionary>();
  DbpediaGenerator generator(config, dictionary.get());
  const auto rows = generator.Generate();

  // 2. Partition it online.
  CinderellaConfig cc;
  cc.weight = 0.2;
  cc.max_size = 300;
  auto partitioner = std::move(Cinderella::Create(cc)).value();
  for (const Row& row : rows) {
    ASSERT_TRUE(partitioner->Insert(row).ok());
  }
  const Cinderella* cinderella = partitioner.get();

  // 3. Pick a selective query from the generated workload and measure.
  const auto workload = GenerateQueryWorkload(rows, 100, QueryWorkloadConfig{});
  ASSERT_FALSE(workload.empty());
  const GeneratedQuery& selective = workload.front();
  const CatalogCapture capture(cinderella->catalog());
  QueryExecutor executor(capture.view());
  const QueryResult before = executor.Execute(selective.query);
  EXPECT_GT(before.metrics.partitions_pruned, 0u);

  // 4. Snapshot and reopen; the query behaves identically.
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*cinderella, *dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok());
  const CatalogCapture restored_capture(restored->partitioner->catalog());
  QueryExecutor restored_executor(restored_capture.view());
  const QueryResult after = restored_executor.Execute(selective.query);
  EXPECT_EQ(after.metrics.rows_matched, before.metrics.rows_matched);
  EXPECT_EQ(after.metrics.partitions_scanned,
            before.metrics.partitions_scanned);

  // 5. CSV round trip through a fresh table preserves the data and keeps
  //    Definition-1 efficiency within the same ballpark (the arrival
  //    order differs, so the partitioning may differ slightly).
  UniversalTable exported(std::move(restored->partitioner),
                          std::move(*restored->dictionary));
  std::stringstream csv;
  ASSERT_TRUE(ExportCsv(exported, csv).ok());

  auto reloaded_partitioner = std::move(Cinderella::Create(cc)).value();
  const Cinderella* reloaded_cinderella = reloaded_partitioner.get();
  UniversalTable reloaded(std::move(reloaded_partitioner));
  ASSERT_TRUE(ImportCsv(csv, &reloaded).ok());
  ASSERT_EQ(reloaded.entity_count(), rows.size());

  std::vector<Synopsis> query_synopses;
  for (const auto& q : workload) query_synopses.push_back(q.query.attributes());
  const double original_efficiency =
      ComputeEfficiency(cinderella->catalog(), query_synopses,
                        SizeMeasure::kEntityCount)
          .efficiency;
  const double reloaded_efficiency =
      ComputeEfficiency(reloaded_cinderella->catalog(), query_synopses,
                        SizeMeasure::kEntityCount)
          .efficiency;
  EXPECT_NEAR(reloaded_efficiency, original_efficiency, 0.15);

  // Every entity survived with its attribute set intact. Dictionary ids
  // differ after the round trip (interning order follows row contents),
  // so compare attribute *names*.
  auto names_of = [](const Row& row, const AttributeDictionary& dict) {
    std::set<std::string> names;
    for (const Row::Cell& cell : row.cells()) {
      names.insert(dict.Name(cell.attribute).value());
    }
    return names;
  };
  Rng rng(5);
  for (int probe = 0; probe < 50; ++probe) {
    const EntityId id = static_cast<EntityId>(rng.Uniform(rows.size()));
    auto row = reloaded.Get(id);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(names_of(*row, reloaded.dictionary()),
              names_of(rows[id], exported.dictionary()));
  }
}

TEST(IntegrationTest, PagedStoreMatchesInMemoryEngine) {
  // Differential test: the paged layout must return exactly the counts of
  // the in-memory executor for every workload query.
  DbpediaConfig config;
  config.num_entities = 2000;
  config.seed = 123;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();

  CinderellaConfig cc;
  cc.weight = 0.3;
  cc.max_size = 200;
  auto partitioner = std::move(Cinderella::Create(cc)).value();
  for (const Row& row : rows) {
    ASSERT_TRUE(partitioner->Insert(row).ok());
  }

  const std::string path = testing::TempDir() + "/integration_paged.db";
  auto pager = Pager::Open(path, 4096, true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 8);  // Tiny pool: forces real paging.
  PagedStore store(pager->get(), &pool);
  partitioner->catalog().ForEachPartition([&](const Partition& partition) {
    ASSERT_TRUE(store.AddPartition(partition).ok());
  });

  const CatalogCapture capture(partitioner->catalog());
  QueryExecutor executor(capture.view());
  const auto workload = GenerateQueryWorkload(rows, 100, QueryWorkloadConfig{});
  for (const GeneratedQuery& q : workload) {
    const QueryResult memory = executor.Execute(q.query);
    auto paged = store.ExecuteQuery(q.query);
    ASSERT_TRUE(paged.ok());
    EXPECT_EQ(paged->rows_matched, memory.metrics.rows_matched)
        << q.query.ToString();
    EXPECT_EQ(paged->rows_scanned, memory.metrics.rows_scanned);
    EXPECT_EQ(paged->partitions_pruned, memory.metrics.partitions_pruned);
  }
}

}  // namespace
}  // namespace cinderella
