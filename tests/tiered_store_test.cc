// Tests for the two-tier storage integration: the TieredStore cold tier
// and its chain lifecycle, the TierController spill policy, cold
// residency in the live engine and in MVCC snapshots, hybrid pruned
// scans over mixed-residency catalogs, tiered crash recovery through the
// kind-6 journal records, and the bulk-bottom-up synopsis tree rebuild.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "core/efficiency.h"
#include "core/universal_table.h"
#include "io/csv.h"
#include "io/durable_table.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/query.h"
#include "storage/tiered_store.h"
#include "synopsis/synopsis_tree.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TieredStoreOptions SmallTier(const char* name) {
  TieredStoreOptions options;
  options.path = TempPath(name);
  options.page_size = 1024;
  options.pool_frames = 4;
  return options;
}

/// partition id -> sorted resident entity ids, regardless of residency.
using Placement = std::map<PartitionId, std::vector<EntityId>>;

Placement PlacementOf(const Cinderella& engine) {
  Placement placement;
  engine.catalog().ForEachPartition([&](const Partition& partition) {
    std::vector<EntityId>& ids = placement[partition.id()];
    const Status status = engine.ForEachRowOf(
        partition, [&](const Row& row) { ids.push_back(row.id()); });
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::sort(ids.begin(), ids.end());
  });
  return placement;
}

std::vector<PartitionId> AllPartitionIds(const Cinderella& engine) {
  std::vector<PartitionId> ids;
  engine.catalog().ForEachPartition(
      [&](const Partition& partition) { ids.push_back(partition.id()); });
  return ids;
}

// -- TieredStore chain lifecycle ---------------------------------------------

TEST(TieredStoreTest, ChainRoundTripPreservesRowsAndOrder) {
  auto tier = std::move(TieredStore::Open(SmallTier("chain_rt.pages"))).value();
  std::vector<Row> rows;
  for (EntityId id = 10; id < 60; ++id) {
    rows.push_back(MakeRow(id, {0, 1, static_cast<AttributeId>(id % 7)}));
  }
  auto chain = tier->WriteChain(rows);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ((*chain)->entities, rows.size());
  EXPECT_EQ((*chain)->representative, 10u);
  EXPECT_GT((*chain)->pages, 0u);
  EXPECT_EQ((*chain)->tier, tier.get());

  std::vector<Row> read;
  ASSERT_TRUE(
      tier->ReadChain(**chain, [&](Row&& row) { read.push_back(std::move(row)); })
          .ok());
  ASSERT_EQ(read.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(read[i].id(), rows[i].id()) << "chain order differs at " << i;
    EXPECT_EQ(read[i].attribute_count(), rows[i].attribute_count());
  }
  const TieredStoreStats stats = tier->stats();
  EXPECT_EQ(stats.chains, 1u);
  EXPECT_EQ(stats.cold_entities, rows.size());
}

TEST(TieredStoreTest, ReleasingLastChainReferenceFreesItsPages) {
  auto tier = std::move(TieredStore::Open(SmallTier("chain_free.pages"))).value();
  std::vector<Row> rows;
  for (EntityId id = 0; id < 80; ++id) rows.push_back(MakeRow(id, {0, 1, 2}));
  {
    auto chain = std::move(tier->WriteChain(rows)).value();
    EXPECT_EQ(tier->stats().chains, 1u);
    EXPECT_EQ(tier->stats().free_pages, 0u);
  }
  const TieredStoreStats stats = tier->stats();
  EXPECT_EQ(stats.chains, 0u);
  EXPECT_EQ(stats.chains_dropped, 1u);
  EXPECT_EQ(stats.cold_entities, 0u);
  EXPECT_GT(stats.free_pages, 0u);  // Pages went back to the free list.
}

TEST(TieredStoreTest, ChainMayOutliveTheTier) {
  std::shared_ptr<const ColdChain> survivor;
  {
    auto tier =
        std::move(TieredStore::Open(SmallTier("chain_late.pages"))).value();
    survivor =
        std::move(tier->WriteChain({MakeRow(1, {0}), MakeRow(2, {1})})).value();
  }
  // Releasing after the tier died must be a safe no-op.
  survivor.reset();
}

TEST(TieredStoreTest, EmptySpillRejected) {
  auto tier = std::move(TieredStore::Open(SmallTier("chain_empty.pages"))).value();
  EXPECT_EQ(tier->WriteChain({}).status().code(), StatusCode::kInvalidArgument);
}

// -- Cold residency in the live engine ---------------------------------------

class ColdEngineTest : public testing::Test {
 protected:
  static std::unique_ptr<Cinderella> NewEngine() {
    CinderellaConfig config;
    config.weight = 0.4;
    config.max_size = 16;
    return std::move(Cinderella::Create(config)).value();
  }

  /// Three disjoint attribute families so the rating separates the rows
  /// into distinct partition groups.
  static Row FamilyRow(EntityId id) {
    const AttributeId base = static_cast<AttributeId>((id % 3) * 20);
    return MakeRow(id, {base, static_cast<AttributeId>(base + 1),
                        static_cast<AttributeId>(base + 1 + id % 2)});
  }
};

TEST_F(ColdEngineTest, PlacementsBitIdenticalUnderSpillAndFault) {
  auto tiered = NewEngine();
  auto reference = NewEngine();
  auto tier = std::move(TieredStore::Open(SmallTier("cold_ident.pages"))).value();
  tiered->set_cold_tier(tier.get());

  for (EntityId id = 0; id < 150; ++id) {
    ASSERT_TRUE(tiered->Insert(FamilyRow(id)).ok());
    ASSERT_TRUE(reference->Insert(FamilyRow(id)).ok());
  }
  // Evict everything, then keep mutating: inserts must rate identically
  // against cold partitions (synopses stay resident) and mutations that
  // land in one must fault it back.
  for (PartitionId id : AllPartitionIds(*tiered)) {
    ASSERT_TRUE(tiered->SpillPartition(id).ok());
  }
  EXPECT_GT(tiered->stats().spills, 0u);

  for (EntityId id = 150; id < 300; ++id) {
    ASSERT_TRUE(tiered->Insert(FamilyRow(id)).ok());
    ASSERT_TRUE(reference->Insert(FamilyRow(id)).ok());
  }
  for (EntityId id = 0; id < 300; id += 7) {
    ASSERT_TRUE(tiered->Delete(id).ok());
    ASSERT_TRUE(reference->Delete(id).ok());
  }
  for (EntityId id = 1; id < 300; id += 11) {
    if (id % 7 == 0) continue;
    const Row updated = MakeRow(id, {50, 51, 52});
    ASSERT_TRUE(tiered->Update(updated).ok());
    ASSERT_TRUE(reference->Update(MakeRow(id, {50, 51, 52})).ok());
  }
  EXPECT_GT(tiered->stats().faults, 0u);

  EXPECT_EQ(PlacementOf(*tiered), PlacementOf(*reference));
  EXPECT_TRUE(tiered->VerifyIntegrity().ok());
  EXPECT_TRUE(reference->VerifyIntegrity().ok());
}

TEST_F(ColdEngineTest, HybridScanMatchesAllHotAndPrunesWithoutIo) {
  auto engine = NewEngine();
  for (EntityId id = 0; id < 240; ++id) {
    ASSERT_TRUE(engine->Insert(FamilyRow(id)).ok());
  }
  const PredicatePtr family0 = IsNotNull(0);
  const PredicatePtr match_all = And(std::vector<PredicatePtr>{});
  QueryResult hot_family;
  QueryResult hot_all;
  QueryResult hot_query;
  std::vector<EntityId> hot_ids;
  {
    const CatalogCapture hot(engine->catalog());
    QueryExecutor executor(hot.view(), 1);
    hot_family = executor.ExecutePredicate(*family0);
    hot_all = executor.ExecutePredicate(*match_all);
    hot_query = executor.Execute(Query(Synopsis{20}));
    executor.ScanMatches(*family0, [&](const RowView& row) {
      hot_ids.push_back(row.id());
    });
  }

  auto tier = std::move(TieredStore::Open(SmallTier("cold_scan.pages"))).value();
  engine->set_cold_tier(tier.get());
  for (PartitionId id : AllPartitionIds(*engine)) {
    ASSERT_TRUE(engine->SpillPartition(id).ok());
  }

  // Identical results through the hybrid scan of a capture that carries
  // the chains, rows now fetched from the pages.
  const CatalogCapture cold(engine->catalog());
  QueryExecutor executor(cold.view(), 1);
  const QueryResult cold_family = executor.ExecutePredicate(*family0);
  EXPECT_EQ(cold_family.metrics.partitions_scanned,
            hot_family.metrics.partitions_scanned);
  EXPECT_EQ(cold_family.metrics.partitions_pruned,
            hot_family.metrics.partitions_pruned);
  EXPECT_EQ(cold_family.metrics.rows_scanned, hot_family.metrics.rows_scanned);
  EXPECT_EQ(cold_family.metrics.rows_matched, hot_family.metrics.rows_matched);

  const QueryResult cold_all = executor.ExecutePredicate(*match_all);
  EXPECT_EQ(cold_all.metrics.rows_matched, hot_all.metrics.rows_matched);

  const QueryResult cold_query = executor.Execute(Query(Synopsis{20}));
  EXPECT_EQ(cold_query.metrics.rows_matched, hot_query.metrics.rows_matched);
  EXPECT_EQ(cold_query.cells_materialized, hot_query.cells_materialized);

  std::vector<EntityId> cold_ids;
  executor.ScanMatches(*family0, [&](const RowView& row) {
    cold_ids.push_back(row.id());
  });
  EXPECT_EQ(cold_ids, hot_ids);

  // A query whose synopsis prunes every cold partition must not touch
  // the tier at all: same pool traffic before and after.
  const TieredStoreStats before = tier->stats();
  const QueryResult pruned = executor.ExecutePredicate(*IsNotNull(99));
  EXPECT_EQ(pruned.metrics.rows_matched, 0u);
  EXPECT_EQ(pruned.metrics.partitions_scanned, 0u);
  const TieredStoreStats after = tier->stats();
  EXPECT_EQ(after.pool.hits + after.pool.misses,
            before.pool.hits + before.pool.misses);
  EXPECT_EQ(after.pager_pages_read, before.pager_pages_read);
}

/// The row's cells as text ("attr=value;..."), for exact comparison.
std::string CellsOf(const RowView& row) {
  std::string out;
  for (const Row::Cell& cell : row) {
    out += std::to_string(cell.attribute);
    out += '=';
    out += cell.value.ToString();
    out += ';';
  }
  return out;
}

/// Spills every other partition of `engine` (ascending id order), so the
/// catalog mixes residencies.
void SpillEveryOtherPartition(Cinderella* engine) {
  const std::vector<PartitionId> ids = AllPartitionIds(*engine);
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(engine->SpillPartition(ids[i]).ok());
  }
}

TEST_F(ColdEngineTest, GetAndExportCsvReadSpilledPartitions) {
  auto owned = NewEngine();
  Cinderella* engine = owned.get();
  UniversalTable table(std::move(owned));
  UniversalTable reference(NewEngine());
  for (AttributeId a = 0; a < 64; ++a) {
    const std::string name = "attr" + std::to_string(a);
    table.dictionary().GetOrCreate(name);
    reference.dictionary().GetOrCreate(name);
  }
  std::vector<Row> rows;
  for (EntityId id = 0; id < 120; ++id) {
    rows.push_back(FamilyRow(id));
    ASSERT_TRUE(table.InsertRow(rows.back()).ok());
    ASSERT_TRUE(reference.InsertRow(rows.back()).ok());
  }
  auto tier = std::move(TieredStore::Open(SmallTier("cold_get.pages"))).value();
  engine->set_cold_tier(tier.get());
  SpillEveryOtherPartition(engine);

  size_t cold_rows = 0;
  for (const Row& row : rows) {
    const auto home = table.catalog().FindEntity(row.id());
    ASSERT_TRUE(home.has_value());
    cold_rows += table.catalog().GetPartition(*home)->cold() ? 1 : 0;
    const StatusOr<Row> got = table.Get(row.id());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(CellsOf(*got), CellsOf(row)) << "entity " << row.id();
  }
  EXPECT_GT(cold_rows, 0u);
  EXPECT_LT(cold_rows, rows.size());
  EXPECT_EQ(table.Get(999).status().code(), StatusCode::kNotFound);

  std::stringstream exported;
  std::stringstream expected;
  ASSERT_TRUE(ExportCsv(table, exported).ok());
  ASSERT_TRUE(ExportCsv(reference, expected).ok());
  const std::string csv = exported.str();
  EXPECT_EQ(csv, expected.str());
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<std::ptrdiff_t>(rows.size() + 1));
}

TEST_F(ColdEngineTest, EfficiencyCountsSpilledPartitionsLikeHotOnes) {
  auto engine = NewEngine();
  for (EntityId id = 0; id < 120; ++id) {
    ASSERT_TRUE(engine->Insert(FamilyRow(id)).ok());
  }
  const std::vector<Synopsis> workload{Synopsis{0}, Synopsis{21},
                                       Synopsis{1, 41}, Synopsis{60}};
  const EfficiencyBreakdown hot =
      ComputeEfficiency(engine->catalog(), workload, SizeMeasure::kByteSize);

  auto tier = std::move(TieredStore::Open(SmallTier("cold_eff.pages"))).value();
  engine->set_cold_tier(tier.get());
  SpillEveryOtherPartition(engine.get());
  const EfficiencyBreakdown mixed =
      ComputeEfficiency(engine->catalog(), workload, SizeMeasure::kByteSize);
  EXPECT_GT(hot.relevant, 0.0);
  EXPECT_EQ(mixed.relevant, hot.relevant);
  EXPECT_EQ(mixed.read, hot.read);
  EXPECT_EQ(mixed.efficiency, hot.efficiency);
}

// -- CatalogCapture: an owned snapshot of a catalog no VersionedTable
// publishes. The ASan+leak pass of tools/tier1.sh checks that each
// version buffer a capture builds is freed exactly once.

TEST(CatalogCaptureTest, KeepsEmptyPartitionsInTheScanCounters) {
  PartitionCatalog catalog;
  for (int p = 0; p < 3; ++p) {
    Partition& partition = catalog.CreatePartition();
    if (p == 1) continue;  // Left empty.
    for (EntityId i = 0; i < 4; ++i) {
      Row row = MakeRow(static_cast<EntityId>(p * 10) + i, {0, 1});
      const Synopsis synopsis = row.AttributeSynopsis();
      ASSERT_TRUE(partition.AddRow(std::move(row), synopsis).ok());
    }
  }
  const CatalogCapture capture(catalog);
  EXPECT_EQ(capture.view().partition_count(), 3u);
  EXPECT_EQ(capture.view().entity_count(), 8u);

  QueryExecutor executor(capture.view());
  const QueryResult pruned = executor.Execute(Query(Synopsis{0}));
  EXPECT_EQ(pruned.metrics.partitions_total, 3u);
  EXPECT_EQ(pruned.metrics.partitions_scanned, 2u);
  EXPECT_EQ(pruned.metrics.partitions_pruned, 1u);
  EXPECT_EQ(pruned.metrics.rows_matched, 8u);
  const QueryResult all =
      executor.ExecutePredicate(*And(std::vector<PredicatePtr>{}));
  EXPECT_EQ(all.metrics.partitions_total, 3u);
  EXPECT_EQ(all.metrics.partitions_scanned, 3u);
  EXPECT_EQ(all.metrics.rows_matched, 8u);

  const PartitionCatalog empty;
  const CatalogCapture nothing(empty);
  EXPECT_EQ(nothing.view().partition_count(), 0u);
}

TEST(CatalogCaptureTest, ColdPartitionsScanToTheAllHotRowsAfterTheCatalogDies) {
  std::vector<Row> rows;
  for (EntityId id = 0; id < 150; ++id) {
    rows.push_back(MakeRow(id, {static_cast<AttributeId>(id % 3 * 10),
                                static_cast<AttributeId>(id % 3 * 10 + 1)}));
  }
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  auto tier = std::move(TieredStore::Open(SmallTier("capture.pages"))).value();
  std::unique_ptr<CatalogCapture> capture;
  size_t partitions = 0;
  {
    auto engine = std::move(Cinderella::Create(config)).value();
    for (const Row& row : rows) ASSERT_TRUE(engine->Insert(row).ok());
    engine->set_cold_tier(tier.get());
    SpillEveryOtherPartition(engine.get());
    partitions = engine->catalog().partition_count();
    capture = std::make_unique<CatalogCapture>(engine->catalog());
  }  // The engine and its catalog die; the capture holds the chains.

  // Brute force over the inserted rows: every row, in entity order, with
  // its cells.
  std::map<EntityId, std::string> scanned;
  QueryExecutor executor(capture->view(), 2);
  const QueryResult all = executor.ScanMatches(
      *And(std::vector<PredicatePtr>{}), [&](const RowView& row) {
        scanned[row.id()] = CellsOf(row);
      });
  EXPECT_EQ(all.metrics.partitions_total, partitions);
  EXPECT_EQ(all.metrics.rows_matched, rows.size());
  ASSERT_EQ(scanned.size(), rows.size());
  for (const Row& row : rows) EXPECT_EQ(scanned[row.id()], CellsOf(row));

  size_t cold = 0;
  capture->view().ForEachPartition(
      [&](const PartitionVersion& version) { cold += version.cold() ? 1 : 0; });
  EXPECT_GT(cold, 0u);
  EXPECT_LT(cold, partitions);
  capture.reset();  // Last reference: versions and chains go.
  EXPECT_EQ(tier->stats().chains, 0u);
}

// -- TierController policy ---------------------------------------------------

TEST(TierControllerTest, MinIdleDelaysSpillUntilPartitionsGoQuiet) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  auto engine = std::move(Cinderella::Create(config)).value();
  auto tier = std::move(TieredStore::Open(SmallTier("ctl_idle.pages"))).value();
  engine->set_cold_tier(tier.get());
  TierController controller(engine.get(),
                            TierControllerOptions{/*budget_bytes=*/1,
                                                  /*min_idle=*/2});
  for (EntityId id = 0; id < 120; ++id) {
    ASSERT_TRUE(
        engine
            ->Insert(MakeRow(id, {static_cast<AttributeId>((id % 3) * 10),
                                  static_cast<AttributeId>((id % 3) * 10 + 1)}))
            .ok());
  }
  // Tick 1 absorbs the inserts: everything was just touched.
  EXPECT_EQ(std::move(controller.EvaluateAndSpill()).value(), 0u);
  // Tick 2: idle for 1 evaluation, still below min_idle.
  EXPECT_EQ(std::move(controller.EvaluateAndSpill()).value(), 0u);
  // Tick 3: idle long enough; the 1-byte budget evicts everything.
  const size_t spilled = std::move(controller.EvaluateAndSpill()).value();
  EXPECT_GT(spilled, 0u);
  size_t cold = 0;
  engine->catalog().ForEachPartition(
      [&](const Partition& partition) { cold += partition.cold() ? 1 : 0; });
  EXPECT_EQ(cold, spilled);
  EXPECT_EQ(controller.HotBytes(), 0u);
  EXPECT_TRUE(engine->VerifyIntegrity().ok());
}

TEST(TierControllerTest, ActivityProbeKeepsTheHotPartitionResident) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  auto engine = std::move(Cinderella::Create(config)).value();
  auto tier = std::move(TieredStore::Open(SmallTier("ctl_probe.pages"))).value();
  engine->set_cold_tier(tier.get());
  for (EntityId id = 0; id < 120; ++id) {
    ASSERT_TRUE(
        engine
            ->Insert(MakeRow(id, {static_cast<AttributeId>((id % 3) * 10),
                                  static_cast<AttributeId>((id % 3) * 10 + 1)}))
            .ok());
  }
  const std::vector<PartitionId> ids = AllPartitionIds(*engine);
  ASSERT_GT(ids.size(), 1u);
  const PartitionId favorite = ids.front();
  const Partition* hot = engine->catalog().GetPartition(favorite);
  ASSERT_NE(hot, nullptr);
  // Budget fits exactly the favorite: spilling every other partition
  // satisfies it, so the activity ordering (coldest first) must leave the
  // favorite resident.
  TierController controller(
      engine.get(),
      TierControllerOptions{hot->Size(SizeMeasure::kByteSize), /*min_idle=*/1});
  controller.set_activity_probe(
      [favorite](PartitionId id) { return id == favorite ? 100.0 : 0.0; });
  // The partitions predate the controller, so they are untracked —
  // maximally idle — and eligible on the very first evaluation.
  const size_t spilled = std::move(controller.EvaluateAndSpill()).value();
  EXPECT_EQ(spilled, ids.size() - 1);
  engine->catalog().ForEachPartition([&](const Partition& partition) {
    EXPECT_EQ(partition.cold(), partition.id() != favorite)
        << "partition " << partition.id();
  });
}

TEST(TierControllerTest, ForcedSpillSkipsColdAndVanishedIds) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  auto engine = std::move(Cinderella::Create(config)).value();
  auto tier = std::move(TieredStore::Open(SmallTier("ctl_forced.pages"))).value();
  engine->set_cold_tier(tier.get());
  for (EntityId id = 0; id < 60; ++id) {
    ASSERT_TRUE(engine->Insert(MakeRow(id, {0, 1})).ok());
  }
  TierController controller(engine.get(), TierControllerOptions{0, 1});
  std::vector<PartitionId> targets = AllPartitionIds(*engine);
  targets.push_back(9999);  // Vanished id: skipped, not an error.
  const size_t first = std::move(controller.SpillPartitions(targets)).value();
  EXPECT_EQ(first, targets.size() - 1);
  // Everything already cold: a repeat spills nothing.
  EXPECT_EQ(std::move(controller.SpillPartitions(targets)).value(), 0u);
}

// -- MVCC residency ----------------------------------------------------------

TEST(VersionedTableTieredTest, SnapshotsCarryResidencyAndServeColdReads) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  VersionedTable table(std::move(Cinderella::Create(config)).value());

  // Spilling without a tier attached must fail cleanly.
  EXPECT_EQ(table.SpillPartitions({0}).code(), StatusCode::kFailedPrecondition);

  auto tier = std::move(TieredStore::Open(SmallTier("mvcc_tier.pages"))).value();
  table.partitioner().set_cold_tier(tier.get());

  std::vector<Row> rows;
  for (EntityId id = 0; id < 200; ++id) {
    rows.push_back(MakeRow(id, {static_cast<AttributeId>((id % 4) * 10),
                                static_cast<AttributeId>((id % 4) * 10 + 1)}));
  }
  ASSERT_TRUE(table.InsertBatch(rows).ok());

  size_t spilled = 0;
  ASSERT_TRUE(
      table.SpillPartitions(AllPartitionIds(table.partitioner()), &spilled)
          .ok());
  ASSERT_GT(spilled, 0u);

  const VersionedTable::MemoryStats stats = table.memory_stats();
  EXPECT_EQ(stats.cold_versions, spilled);
  EXPECT_EQ(stats.hot_versions + stats.cold_versions, stats.live_versions);
  EXPECT_GT(stats.cold_pages, 0u);

  // Point reads fall back to a chain scan on cold partitions.
  for (EntityId id = 0; id < 200; id += 17) {
    auto row = table.Get(id);
    ASSERT_TRUE(row.ok()) << "entity " << id;
    EXPECT_EQ(row->id(), id);
    EXPECT_TRUE(row->Has(static_cast<AttributeId>((id % 4) * 10)));
  }

  // Snapshot scans over the all-cold view read every row back.
  const PredicatePtr match_all = And(std::vector<PredicatePtr>{});
  VersionedTable::Snapshot cold_snapshot = table.snapshot();
  {
    QueryExecutor executor(cold_snapshot.view(), 1);
    const QueryResult result = executor.ExecutePredicate(*match_all);
    EXPECT_EQ(result.metrics.rows_matched, cold_snapshot.view().entity_count());
  }

  // Fault a cold partition back by updating one of its rows; the pinned
  // snapshot keeps its chain alive and keeps reading it.
  ASSERT_TRUE(table.Update(MakeRow(0, {0, 1, 2})).ok());
  EXPECT_GT(table.partitioner().stats().faults, 0u);
  {
    QueryExecutor executor(cold_snapshot.view(), 1);
    const QueryResult result = executor.ExecutePredicate(*match_all);
    EXPECT_EQ(result.metrics.rows_matched, cold_snapshot.view().entity_count());
  }
}

// -- Tiered crash recovery (the ISSUE's acceptance shape) --------------------

TEST(DurableTieredTest, OutOfCoreDatasetSurvivesCrashBitIdenticalToAllHot) {
  const std::string dir = TempPath("durable_tiered");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DurableTable::Options options;
  options.directory = dir;
  options.config.weight = 0.4;
  options.config.max_size = 32;
  options.spill.page_size = 1024;
  options.spill.pool_frames = 4;  // Pool budget: 4 KiB.
  options.spill.budget_bytes = 8192;
  options.spill.min_idle = 1;

  CinderellaConfig reference_config = options.config;
  auto reference = std::move(Cinderella::Create(reference_config)).value();

  auto family_row = [](EntityId id) {
    const AttributeId base = static_cast<AttributeId>((id % 6) * 10);
    Row row(id);
    row.Set(base, Value(int64_t{1}));
    row.Set(base + 1, Value(static_cast<int64_t>(id)));
    row.Set(base + 2, Value(std::string("payload-") + std::to_string(id)));
    return row;
  };

  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->tiering_enabled());
    EntityId next = 0;
    for (int batch = 0; batch < 6; ++batch) {
      std::vector<Row> rows;
      for (int r = 0; r < 200; ++r) rows.push_back(family_row(next++));
      for (const Row& row : rows) {
        ASSERT_TRUE(reference->Insert(family_row(row.id())).ok());
      }
      ASSERT_TRUE((*table)->InsertBatch(std::move(rows)).ok());
    }
    for (EntityId id = 3; id < next; id += 97) {
      ASSERT_TRUE((*table)->Delete(id).ok());
      ASSERT_TRUE(reference->Delete(id).ok());
    }
    // The live table spilled under its budget while the reference stayed
    // all-hot; the dataset dwarfs the buffer-pool budget (>= 4x).
    EXPECT_GT((*table)->cinderella().stats().spills, 0u);
    ASSERT_NE((*table)->tier(), nullptr);
    EXPECT_GT((*table)->tier()->stats().chains, 0u);
    uint64_t dataset_bytes = 0;
    reference->catalog().ForEachPartition([&](const Partition& partition) {
      dataset_bytes += partition.Size(SizeMeasure::kByteSize);
    });
    EXPECT_GE(dataset_bytes,
              4 * options.spill.page_size * options.spill.pool_frames);
    // Results over the mixed-residency table match the all-hot engine.
    EXPECT_EQ(PlacementOf((*table)->cinderella()), PlacementOf(*reference));
    // "Crash": destructors only, no checkpoint.
  }

  auto recovered = DurableTable::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->cinderella().VerifyIntegrity().ok());
  // Recovery replayed the journal AND the kind-6 tier placement: data and
  // placements are bit-identical to the all-hot reference, and the cold
  // set was re-established on the fresh page file.
  EXPECT_EQ(PlacementOf((*recovered)->cinderella()), PlacementOf(*reference));
  size_t cold = 0;
  (*recovered)->cinderella().catalog().ForEachPartition(
      [&](const Partition& partition) { cold += partition.cold() ? 1 : 0; });
  EXPECT_GT(cold, 0u);
  const CatalogCapture capture((*recovered)->cinderella().catalog());
  QueryExecutor executor(capture.view(), 1);
  const QueryResult result =
      executor.ExecutePredicate(*And(std::vector<PredicatePtr>{}));
  EXPECT_EQ(result.metrics.rows_matched,
            (*recovered)->table().entity_count());
}

// -- Bulk-bottom-up synopsis tree rebuild (snapshot load path) ---------------

TEST(SynopsisTreeBulkBuildTest, PropertyMatchesIncrementalUpsertPath) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t fanout = 2 + rng.Uniform(15);
    const size_t leaves = 1 + rng.Uniform(200);
    std::map<uint64_t, Synopsis> by_key;
    for (size_t i = 0; i < leaves; ++i) {
      const uint64_t key = rng.Uniform(4000);
      Synopsis synopsis;
      const size_t attrs = 1 + rng.Uniform(8);
      for (size_t a = 0; a < attrs; ++a) {
        synopsis.Add(static_cast<AttributeId>(rng.Uniform(300)));
      }
      by_key[key] = synopsis;
    }

    SynopsisTree incremental(fanout);
    for (const auto& [key, synopsis] : by_key) {
      incremental.Upsert(key, synopsis);
    }
    SynopsisTree bulk(fanout);
    std::vector<std::pair<uint64_t, const Synopsis*>> pairs;
    for (const auto& [key, synopsis] : by_key) {
      pairs.emplace_back(key, &synopsis);
    }
    bulk.BulkBuild(std::move(pairs));

    std::string error;
    ASSERT_TRUE(bulk.CheckInvariants(&error)) << "trial " << trial << ": "
                                              << error;
    EXPECT_EQ(bulk.live_count(), incremental.live_count());
    EXPECT_EQ(bulk.depth(), incremental.depth());
    EXPECT_EQ(bulk.internal_node_count(), incremental.internal_node_count());
    ASSERT_NE(bulk.root_union(), nullptr);
    EXPECT_EQ(*bulk.root_union(), *incremental.root_union());

    // Identical leaf sequences...
    std::vector<std::pair<uint64_t, Synopsis>> got, want;
    bulk.Share().ForEachLeaf([&](uint64_t key, const Synopsis& synopsis) {
      got.emplace_back(key, synopsis);
    });
    incremental.Share().ForEachLeaf(
        [&](uint64_t key, const Synopsis& synopsis) {
          want.emplace_back(key, synopsis);
        });
    EXPECT_EQ(got, want) << "trial " << trial;

    // ...and identical candidate sets for random probes.
    for (int probe = 0; probe < 10; ++probe) {
      Synopsis query;
      query.Add(static_cast<AttributeId>(rng.Uniform(300)));
      if (rng.Uniform(2) == 0) {
        query.Add(static_cast<AttributeId>(rng.Uniform(300)));
      }
      std::vector<uint64_t> bulk_hits, inc_hits;
      const std::vector<uint64_t>& words = query.words();
      bulk.Share().ForEachCandidate(
          words.data(), words.size(),
          [&](uint64_t key) { bulk_hits.push_back(key); });
      incremental.Share().ForEachCandidate(
          words.data(), words.size(),
          [&](uint64_t key) { inc_hits.push_back(key); });
      EXPECT_EQ(bulk_hits, inc_hits) << "trial " << trial;
    }
  }
}

TEST(SynopsisTreeBulkBuildTest, EmptyAndSingleLeafEdgeCases) {
  SynopsisTree tree(4);
  tree.BulkBuild({});
  EXPECT_EQ(tree.live_count(), 0u);
  EXPECT_EQ(tree.root_union(), nullptr);

  const Synopsis only{3, 5};
  tree.BulkBuild({{7, &only}});
  EXPECT_EQ(tree.live_count(), 1u);
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error)) << error;
  std::vector<uint64_t> hits;
  const std::vector<uint64_t>& words = only.words();
  tree.Share().ForEachCandidate(words.data(), words.size(),
                                [&](uint64_t key) { hits.push_back(key); });
  EXPECT_EQ(hits, (std::vector<uint64_t>{7}));
}

}  // namespace
}  // namespace cinderella
